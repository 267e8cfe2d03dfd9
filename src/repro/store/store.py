"""Content-addressed on-disk store of :class:`ResultTable`\\ s.

Layout::

    <root>/
      results/<base[:2]>/<base>/trials-<n>.rpt    one table per budget
      campaigns/<name>.json                       campaign checkpoints

Result payloads are binary (``.rpt``, :mod:`repro.store.codec`) —
roughly an order of magnitude faster to put/get than the JSON documents
the first store generation wrote.  Legacy ``trials-<n>.json`` entries
stay readable: ``get`` falls back to them and migrates them to ``.rpt``
on first read (the JSON file is left behind for human inspection).
JSON remains the *export* format — ``table.to_json()`` — it is just no
longer the storage format.

``base`` is the :class:`~repro.store.keys.ResultKey` base digest — the
identity of a trial *sequence* — and each file under it holds the
table of one fixed budget of that sequence.  Because trial ``i`` of a
sequence is independent of the budget (DESIGN §7: per-trial seed
streams are spawned by index), the entries under one base are prefixes
of each other, which the store exploits two ways:

* **truncation** — a cached 2000-trial table answers a 500-trial
  request by slicing its first 500 records;
* **top-up** — a cached 500-trial table answers a 2000-trial request
  by computing only trials 500…1999 (the caller's job; the store just
  reports the best prefix via :meth:`ResultStore.best_prefix`).

Writes are atomic (a per-writer temp file + ``os.replace``) so a killed
campaign never leaves a half-written table behind, and two campaigns
putting the same key concurrently each publish a whole table.  Reads
are defensive: a truncated, corrupt or wrong-codec-version payload is
**a logged cache miss, never an exception** — a damaged store entry
costs a recompute, not a campaign crash, and the next ``put``
overwrites it.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pathlib
import tempfile

from repro import obs
from repro.experiments.results import ResultTable
from repro.store.codec import CodecError, decode, encode
from repro.store.keys import ResultKey

log = logging.getLogger("repro.store")

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_STORE"

#: Default store root when neither ``--store`` nor the env var is set.
DEFAULT_ROOT = "~/.cache/repro"

#: Suffix of binary result payloads (current format).
RESULT_SUFFIX = ".rpt"

#: Suffix of first-generation JSON payloads (read-only fallback).
LEGACY_SUFFIX = ".json"


def default_store_root() -> pathlib.Path:
    """``$REPRO_STORE`` if set, else ``~/.cache/repro``."""
    return pathlib.Path(
        os.environ.get(STORE_ENV) or DEFAULT_ROOT
    ).expanduser()


def _atomic_write(path: pathlib.Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via a temp file and ``os.replace``.

    Every call stages into its own uniquely named temp file beside
    ``path`` (``.tmp`` suffix, so the budget scan skips it), so two
    writers of one key never share a temp file: each replace publishes
    a complete payload and the last one wins.  The temp file is removed
    if the write or the replace fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class ResultStore:
    """get/put/has of result tables, addressed by :class:`ResultKey`.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  ``None``
        selects :func:`default_store_root`.
    """

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        self.root = (
            pathlib.Path(root).expanduser()
            if root is not None
            else default_store_root()
        )

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    # -- paths ---------------------------------------------------------------

    def _base_dir(self, key: ResultKey) -> pathlib.Path:
        return self.root / "results" / key.base[:2] / key.base

    def path_for(self, key: ResultKey) -> pathlib.Path:
        """Where the exact-budget table of ``key`` lives (or would)."""
        return self._base_dir(key) / f"trials-{key.n_trials}{RESULT_SUFFIX}"

    def legacy_path_for(self, key: ResultKey) -> pathlib.Path:
        """Where a first-generation JSON payload of ``key`` would live."""
        return self._base_dir(key) / f"trials-{key.n_trials}{LEGACY_SUFFIX}"

    def campaign_dir(self) -> pathlib.Path:
        """Where campaign checkpoints live."""
        return self.root / "campaigns"

    # -- exact-budget access -------------------------------------------------

    def has(self, key: ResultKey) -> bool:
        """Whether the exact budget of ``key`` is stored."""
        return (
            self.path_for(key).is_file()
            or self.legacy_path_for(key).is_file()
        )

    def get(self, key: ResultKey) -> ResultTable | None:
        """The stored table for ``key``'s exact budget, else ``None``.

        Unreadable payloads (truncated, corrupt, wrong codec version)
        are logged and reported as a miss — the caller recomputes and
        the next ``put`` repairs the entry.  A readable legacy JSON
        payload is migrated to the binary format on the way out.
        """
        with obs.span("store.get", key=key.digest, n_trials=key.n_trials) as sp:
            path = self.path_for(key)
            if path.is_file():
                try:
                    table = decode(path.read_bytes())
                except (CodecError, OSError) as exc:
                    obs.inc("store.corrupt")
                    sp.note(result="corrupt")
                    log.warning(
                        "store entry %s (key %s) is unreadable (%s); "
                        "treating as a miss",
                        path, key.digest, exc,
                    )
                    return None
                obs.inc("store.get.hit")
                sp.note(result="hit")
                return table
            legacy = self.legacy_path_for(key)
            if legacy.is_file():
                try:
                    table = ResultTable.from_json(legacy.read_text())
                except (ValueError, KeyError, TypeError, UnicodeDecodeError,
                        OSError) as exc:
                    obs.inc("store.corrupt")
                    sp.note(result="corrupt")
                    log.warning(
                        "legacy store entry %s (key %s) is unreadable (%s); "
                        "treating as a miss",
                        legacy, key.digest, exc,
                    )
                    return None
                _atomic_write(path, encode(table))
                obs.inc("store.get.migrated")
                sp.note(result="migrated")
                return table
            obs.inc("store.get.miss")
            sp.note(result="miss")
            return None

    def put(self, key: ResultKey, table: ResultTable) -> pathlib.Path:
        """Store ``table`` under ``key`` (atomic; returns the path).

        The table must actually hold ``key.n_trials`` records — storing
        a mislabelled table would poison every later truncation and
        top-up against this base.
        """
        if len(table) != key.n_trials:
            raise ValueError(
                f"table has {len(table)} records but the key says "
                f"{key.n_trials} trials"
            )
        with obs.span("store.put", key=key.digest, n_trials=key.n_trials):
            obs.inc("store.put")
            path = self.path_for(key)
            _atomic_write(path, encode(table))
            return path

    # -- prefix queries (top-up / truncation) --------------------------------

    def stored_budgets(self, key: ResultKey) -> list[int]:
        """All budgets stored under ``key``'s base, ascending.

        Binary and legacy payloads both count; a budget present in both
        formats is listed once.
        """
        base = self._base_dir(key)
        if not base.is_dir():
            return []
        budgets = set()
        for entry in base.iterdir():
            name = entry.name
            for suffix in (RESULT_SUFFIX, LEGACY_SUFFIX):
                if name.startswith("trials-") and name.endswith(suffix):
                    try:
                        budgets.add(int(name[len("trials-"):-len(suffix)]))
                    except ValueError:
                        pass
                    break
        return sorted(budgets)

    def best_prefix(self, key: ResultKey) -> ResultTable | None:
        """The most useful stored table for ``key``'s trial sequence.

        Preference order: the exact budget; else the *smallest* stored
        budget above it (cheapest truncation); else the *largest*
        stored budget below it (best top-up start).  ``None`` when the
        base is empty.  An unreadable payload drops out of the running
        (with a ``get`` warning) and the next-best budget is tried.
        """
        budgets = self.stored_budgets(key)
        while budgets:
            if key.n_trials in budgets:
                best = key.n_trials
            else:
                above = [n for n in budgets if n > key.n_trials]
                below = [n for n in budgets if n < key.n_trials]
                best = min(above) if above else max(below)
            table = self.get(key.at_budget(best))
            if table is not None:
                return table
            budgets.remove(best)
        return None
