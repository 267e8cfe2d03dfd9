"""Tests for ``repro.lint``: engine mechanics, every shipped rule, CLI.

Rule tests feed minimal snippets through :meth:`Linter.lint_source`
with synthetic relative paths (``src/repro/store/bad.py`` and friends)
so path scoping is exercised exactly as it is in a real run.  The
suite ends with the tier-1 gate: the shipped tree must lint clean.
"""

import json
import textwrap

import pytest

from repro.lint import (
    DEFAULT_PATHS,
    PARSE_ERROR_ID,
    REGISTRY,
    BaseChecker,
    Linter,
    Registry,
)
from repro.lint.cli import main as lint_main

PKG = "src/repro/module.py"          # inside the package
STORE = "src/repro/store/bad.py"     # serialization scope
TEST = "tests/test_something.py"     # outside the package


def findings_for(source, rel_path=PKG, **linter_kwargs):
    linter = Linter(REGISTRY, **linter_kwargs)
    return linter.lint_source(textwrap.dedent(source), rel_path)


def rule_ids(findings, *, include_suppressed=False):
    return [
        f.rule for f in findings if include_suppressed or not f.suppressed
    ]


class TestRegistry:
    def test_shipped_rule_set(self):
        ids = REGISTRY.ids()
        assert ids == sorted(ids)
        for prefix in ("RNG", "DET", "SER", "API"):
            assert any(i.startswith(prefix) for i in ids), prefix

    def test_duplicate_id_rejected(self):
        reg = Registry()
        deco = dict(
            name="x", severity="error", message="m", fix_hint="h",
            applies_to=lambda p: True,
        )
        reg.rule(id="T001", **deco)(type("C1", (BaseChecker,), {}))
        with pytest.raises(ValueError, match="duplicate"):
            reg.rule(id="T001", **deco)(type("C2", (BaseChecker,), {}))

    def test_bad_severity_rejected(self):
        reg = Registry()
        with pytest.raises(ValueError, match="severity"):
            reg.rule(
                id="T001", name="x", severity="fatal", message="m",
                fix_hint="h", applies_to=lambda p: True,
            )(type("C", (BaseChecker,), {}))

    def test_select_by_prefix(self):
        chosen = REGISTRY.select(select=["RNG"])
        assert chosen and all(r.id.startswith("RNG") for r in chosen)

    def test_select_exact_id(self):
        chosen = REGISTRY.select(select=["RNG005"])
        assert [r.id for r in chosen] == ["RNG005"]

    def test_ignore_by_prefix(self):
        chosen = REGISTRY.select(ignore=["SER"])
        assert chosen and not any(r.id.startswith("SER") for r in chosen)

    def test_unknown_prefix_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            REGISTRY.select(select=["NOPE"])
        with pytest.raises(ValueError, match="unknown rule"):
            REGISTRY.select(ignore=["NOPE"])


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        out = findings_for("def broken(:\n")
        assert rule_ids(out) == [PARSE_ERROR_ID]
        assert "does not parse" in out[0].message

    def test_alias_resolution(self):
        # The rule must match however numpy is spelled.
        src = """\
        import numpy as anything
        anything.random.seed(0)
        """
        assert "RNG001" in rule_ids(findings_for(src))

    def test_from_import_resolution(self):
        src = """\
        from numpy.random import default_rng
        rng = default_rng(0)
        """
        assert "RNG005" in rule_ids(findings_for(src))

    def test_local_name_does_not_resolve(self):
        # A user-defined object with the same attribute names is not
        # numpy, and must not match.
        src = """\
        class random:
            @staticmethod
            def seed(x):
                return x
        random.seed(0)
        """
        assert rule_ids(findings_for(src)) == []

    def test_findings_sorted_by_position(self):
        src = """\
        import numpy as np
        np.random.seed(1)
        np.random.normal()
        """
        out = findings_for(src)
        assert [(f.line, f.rule) for f in out] == [
            (2, "RNG001"), (3, "RNG003"),
        ]


class TestSuppression:
    def test_targeted_noqa_suppresses(self):
        src = """\
        import numpy as np
        np.random.seed(0)  # repro: noqa[RNG001] -- test fixture
        """
        out = findings_for(src)
        assert rule_ids(out) == []
        assert rule_ids(out, include_suppressed=True) == ["RNG001"]
        assert out[0].suppressed

    def test_blanket_noqa_suppresses_everything(self):
        src = """\
        import numpy as np
        np.random.seed(0)  # repro: noqa
        """
        out = findings_for(src)
        assert rule_ids(out) == []
        assert out[0].suppressed

    def test_wrong_rule_id_does_not_suppress(self):
        src = """\
        import numpy as np
        np.random.seed(0)  # repro: noqa[SER001]
        """
        out = findings_for(src)
        assert rule_ids(out) == ["RNG001"]

    def test_noqa_on_other_line_does_not_suppress(self):
        src = """\
        import numpy as np
        # repro: noqa[RNG001]
        np.random.seed(0)
        """
        assert rule_ids(findings_for(src)) == ["RNG001"]

    def test_multiple_rules_in_one_directive(self):
        src = """\
        import numpy as np
        import json
        np.random.seed(0)  # repro: noqa[RNG001, SER001]
        """
        out = findings_for(src)
        assert rule_ids(out) == []


class TestRngRules:
    def test_rng001_global_seed(self):
        src = "import numpy as np\nnp.random.seed(7)\n"
        assert rule_ids(findings_for(src, TEST)) == ["RNG001"]

    def test_rng002_randomstate(self):
        src = "import numpy as np\nr = np.random.RandomState(0)\n"
        assert rule_ids(findings_for(src, TEST)) == ["RNG002"]

    def test_rng003_global_draw(self):
        src = "import numpy as np\nx = np.random.normal(size=4)\n"
        assert rule_ids(findings_for(src, TEST)) == ["RNG003"]

    def test_rng003_generator_draw_is_fine(self):
        src = """\
        from repro.utils.rng import ensure_rng
        rng = ensure_rng(0)
        x = rng.normal(size=4)
        """
        assert rule_ids(findings_for(src, TEST)) == []

    def test_rng004_stdlib_random_in_package(self):
        assert rule_ids(findings_for("import random\n", PKG)) == ["RNG004"]
        src = "from random import choice\n"
        assert rule_ids(findings_for(src, PKG)) == ["RNG004"]

    def test_rng004_allowed_in_tests(self):
        assert rule_ids(findings_for("import random\n", TEST)) == []

    def test_rng005_direct_default_rng_in_package(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rule_ids(findings_for(src, PKG)) == ["RNG005"]

    def test_rng005_allowed_in_tests(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rule_ids(findings_for(src, TEST)) == []


class TestDetRules:
    def test_det001_wall_clock(self):
        src = "import time\nstamp = time.time()\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET001"]

    def test_det001_datetime_now(self):
        src = """\
        from datetime import datetime
        stamp = datetime.now()
        """
        assert rule_ids(findings_for(src, PKG)) == ["DET001"]

    def test_det001_perf_counter_is_det004_business(self):
        # A perf_counter read in package code is not a *wall-clock*
        # finding — it trips the blessed-clock rule instead.
        src = "import time\nt0 = time.perf_counter()\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET004"]

    def test_det001_not_enforced_in_tests(self):
        src = "import time\nstamp = time.time()\n"
        assert rule_ids(findings_for(src, TEST)) == []

    def test_det004_monotonic_reads_flagged_in_package(self):
        for call in ("perf_counter", "perf_counter_ns",
                     "monotonic", "monotonic_ns"):
            src = f"import time\nt0 = time.{call}()\n"
            assert rule_ids(findings_for(src, PKG)) == ["DET004"], call

    def test_det004_aliased_import_resolved(self):
        src = "from time import monotonic as mono\nt0 = mono()\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET004"]

    def test_det004_not_enforced_in_benchmarks_or_tests(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert rule_ids(findings_for(src, TEST)) == []
        assert rule_ids(findings_for(src, "benchmarks/bench_x.py")) == []

    def test_det004_blessed_clock_carries_suppressions(self):
        # The one sanctioned implementation site: repro/obs/clock.py
        # reads the clock under justified suppressions, so the findings
        # exist but are marked suppressed.
        import pathlib

        source = pathlib.Path("src/repro/obs/clock.py").read_text()
        out = findings_for(source, "src/repro/obs/clock.py")
        det004 = [f for f in out if f.rule == "DET004"]
        assert len(det004) == 2
        assert all(f.suppressed for f in det004)

    def test_det002_bare_set_iteration(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET002"]

    def test_det002_set_call_in_comprehension(self):
        src = "out = [x for x in set([3, 1])]\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET002"]

    def test_det002_sorted_set_is_fine(self):
        src = "for x in sorted({3, 1, 2}):\n    print(x)\n"
        assert rule_ids(findings_for(src, PKG)) == []

    def test_det003_mutable_default(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET003"]

    def test_det003_ctor_default(self):
        src = "def f(xs=dict()):\n    return xs\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET003"]

    def test_det003_kwonly_default(self):
        src = "def f(*, xs={}):\n    return xs\n"
        assert rule_ids(findings_for(src, PKG)) == ["DET003"]

    def test_det003_none_default_is_fine(self):
        src = "def f(xs=None):\n    return xs or []\n"
        assert rule_ids(findings_for(src, PKG)) == []


class TestSerRules:
    def test_ser001_missing_allow_nan(self):
        # The PR 7 incident: bare json.dumps in a store path lets a NaN
        # serialize as a non-JSON token and corrupt the stored table.
        src = """\
        import json
        def save(doc):
            return json.dumps(doc, sort_keys=True)
        """
        assert rule_ids(findings_for(src, STORE)) == ["SER001"]

    def test_ser001_allow_nan_true_is_still_wrong(self):
        src = """\
        import json
        def save(doc):
            return json.dumps(doc, sort_keys=True, allow_nan=True)
        """
        assert rule_ids(findings_for(src, STORE)) == ["SER001"]

    def test_ser002_missing_sort_keys(self):
        src = """\
        import json
        def save(doc):
            return json.dumps(doc, allow_nan=False)
        """
        assert rule_ids(findings_for(src, STORE)) == ["SER002"]

    def test_ser_clean_call(self):
        src = """\
        import json
        def save(doc):
            return json.dumps(doc, sort_keys=True, allow_nan=False)
        """
        assert rule_ids(findings_for(src, STORE)) == []

    def test_ser002_nonfinite_codec_escape_hatch(self):
        # ResultTable documents preserve column order deliberately;
        # routing through encode_nonfinite marks that as intentional.
        src = """\
        import json
        from repro.store.codec import encode_nonfinite
        def save(doc):
            return json.dumps(encode_nonfinite(doc), allow_nan=False)
        """
        assert rule_ids(findings_for(src, STORE)) == []

    def test_ser_rules_scoped_to_store_paths(self):
        src = """\
        import json
        def save(doc):
            return json.dumps(doc)
        """
        assert rule_ids(findings_for(src, "src/repro/analysis/x.py")) == []
        assert rule_ids(findings_for(src, TEST)) == []

    def test_ser_scope_covers_campaigns_and_results(self):
        src = "import json\njson.dumps({})\n"
        for path in (
            "src/repro/campaigns/runner.py",
            "src/repro/experiments/results.py",
            "src/repro/obs/trace.py",
        ):
            found = rule_ids(findings_for(src, path))
            assert found == ["SER001", "SER002"], path


class TestApiRules:
    def test_api001_star_import(self):
        src = "from repro.phy import *\n"
        assert rule_ids(findings_for(src, TEST)) == ["API001"]

    def test_api002_missing_all_in_init(self):
        src = "from repro.phy.config import PhyConfig\n"
        out = rule_ids(findings_for(src, "src/repro/sub/__init__.py"))
        assert out == ["API002"]

    def test_api002_public_name_missing_from_all(self):
        src = """\
        from repro.phy.config import PhyConfig
        from repro.phy.crc import crc16
        __all__ = ["PhyConfig"]
        """
        out = findings_for(src, "src/repro/sub/__init__.py")
        assert rule_ids(out) == ["API002"]
        assert "crc16" in out[0].message

    def test_api002_stale_entry(self):
        src = '__all__ = ["missing_name"]\n'
        out = findings_for(src, "src/repro/sub/__init__.py")
        assert rule_ids(out) == ["API002"]
        assert "missing_name" in out[0].message

    def test_api002_module_getattr_lazy_exports_ok(self):
        src = """\
        def __getattr__(name):
            raise AttributeError(name)
        __all__ = ["lazy_thing"]
        """
        assert rule_ids(findings_for(src, "src/repro/sub/__init__.py")) == []

    def test_api002_complete_all_is_clean(self):
        src = """\
        from repro.phy.config import PhyConfig
        __all__ = ["PhyConfig"]
        """
        assert rule_ids(findings_for(src, "src/repro/sub/__init__.py")) == []

    def test_api002_non_init_module_needs_no_all(self):
        src = "from repro.phy.config import PhyConfig\n"
        assert rule_ids(findings_for(src, PKG)) == []


class TestSelectIgnoreThreading:
    def test_select_restricts_findings(self):
        src = """\
        import numpy as np
        np.random.seed(0)
        def f(xs=[]):
            return xs
        """
        assert rule_ids(findings_for(src, PKG, select=["DET"])) == ["DET003"]

    def test_ignore_drops_findings(self):
        src = """\
        import numpy as np
        np.random.seed(0)
        def f(xs=[]):
            return xs
        """
        out = rule_ids(findings_for(src, PKG, ignore=["DET003"]))
        assert out == ["RNG001"]


class TestReportAndCli:
    def write_bad_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "store" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import json\n"
            "import numpy as np\n"
            "def save(doc):\n"
            "    np.random.seed(0)\n"
            "    return json.dumps(doc)\n"
        )
        return bad

    def test_json_report_schema(self, tmp_path):
        from repro.lint import lint_report

        self.write_bad_file(tmp_path)
        report = lint_report([tmp_path / "src"])
        doc = json.loads(report.to_json())
        assert doc["version"] == 1
        assert doc["files_scanned"] == 1
        assert {r["id"] for r in doc["rules"]} == set(REGISTRY.ids())
        found = {f["rule"] for f in doc["findings"]}
        assert found == {"RNG001", "SER001", "SER002"}
        assert doc["summary"]["active"] == 3
        assert doc["summary"]["suppressed"] == 0
        assert doc["summary"]["by_rule"]["SER001"] == 1
        for f in doc["findings"]:
            assert set(f) == {
                "rule", "severity", "path", "line", "col",
                "message", "fix_hint", "suppressed",
            }

    def test_cli_exit_one_on_findings(self, tmp_path, capsys):
        self.write_bad_file(tmp_path)
        code = lint_main([str(tmp_path / "src")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RNG001" in out and "SER001" in out
        assert "3 finding(s)" in out

    def test_cli_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_exit_two_on_unknown_rule(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean), "--select", "BOGUS"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_cli_json_format(self, tmp_path, capsys):
        self.write_bad_file(tmp_path)
        code = lint_main([str(tmp_path / "src"), "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["active"] == 3

    def test_cli_report_artifact(self, tmp_path, capsys):
        self.write_bad_file(tmp_path)
        artifact = tmp_path / "lint-report.json"
        code = lint_main(
            [str(tmp_path / "src"), "--report", str(artifact)]
        )
        assert code == 1
        doc = json.loads(artifact.read_text())
        assert doc["summary"]["active"] == 3

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in REGISTRY.ids():
            assert rule_id in out

    def test_suppressed_findings_survive_into_report(self, tmp_path):
        from repro.lint import lint_report

        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n"
            "np.random.seed(0)  # repro: noqa[RNG001] -- fixture\n"
        )
        report = lint_report([bad])
        assert report.exit_code == 0
        assert [f.rule for f in report.suppressed] == ["RNG001"]
        doc = json.loads(report.to_json())
        assert doc["summary"] == {
            "total": 1, "active": 0, "suppressed": 1, "by_rule": {},
        }

    def test_main_cli_exposes_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert repro_main(["lint", str(clean)]) == 0
        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--select" in help_text and "--format" in help_text


class TestSeededFaults:
    """Re-create the historical bugs and prove the linter catches them."""

    def test_pr7_nan_checkpoint_bug_is_caught(self):
        # PR 7 shipped json.dumps without allow_nan=False in the
        # campaign checkpoint writer; a NaN Wilson bound then wrote
        # non-JSON bytes.  The linter now fails that exact pattern.
        src = """\
        import json
        def write_checkpoint(path, state):
            path.write_text(json.dumps(state, indent=2) + "\\n")
        """
        found = rule_ids(
            findings_for(src, "src/repro/campaigns/runner.py")
        )
        assert found == ["SER001", "SER002"]

    def test_global_draw_in_trial_path_is_caught(self):
        src = """\
        import numpy as np
        def forward_ber_trial(stack, rng):
            noise = np.random.standard_normal(128)
            return {"errors": int(noise.sum() > 0)}
        """
        found = rule_ids(
            findings_for(src, "src/repro/experiments/runner.py")
        )
        assert found == ["RNG003"]


@pytest.mark.integration
class TestSelfLint:
    """The shipped tree holds its own invariants (tier-1 gate)."""

    def test_repo_lints_clean(self):
        from repro.lint import lint_report

        report = lint_report(list(DEFAULT_PATHS))
        messages = [f.format() for f in report.active]
        assert report.active == [], "\n".join(messages)
        assert report.files_scanned > 100

    def test_all_suppressions_carry_justification(self):
        # A suppression must say *why*: `# repro: noqa[RULE] -- reason`.
        from repro.lint import lint_report

        report = lint_report(list(DEFAULT_PATHS))
        import pathlib

        for finding in report.suppressed:
            line = pathlib.Path(finding.path).read_text().splitlines()[
                finding.line - 1
            ]
            assert "--" in line.split("noqa", 1)[1], (
                f"{finding.path}:{finding.line} suppression lacks a "
                "justification"
            )
