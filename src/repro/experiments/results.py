"""Result container: uniform records plus run metadata.

:class:`ResultTable` is the one shape every experiment produces — a
fixed column set, one value per column per trial, plus a metadata dict
describing how they were obtained (scenario, seed, worker count,
stopping reason).  It renders to the benchmark table format, serialises
to JSON and CSV, and supersedes the per-use-case accumulators the
sweeps used to hand-roll.

Storage is *columnar* (DESIGN §9): each column lives as one growable
numpy array, typed ``bool``/``int64``/``float64`` when every value fits
and demoted to ``object`` dtype otherwise (strings, dicts, mixed
numerics).  The record-oriented API is unchanged — ``append`` takes a
dict, ``records`` materialises dicts — but whole-column access
(:meth:`ResultTable.array`) is a numpy view, which is what the store
codec and the columnar aggregates build on.

Two integrity rules the old list-of-dicts container got wrong are load
bearing here and frozen by regression tests:

* the **first appended record locks the column set unconditionally** —
  an empty first record locks zero columns, so a later keyed record is
  rejected instead of silently re-locking and leaving a ragged table;
* JSON serialisation is **strict**: non-finite floats are encoded as
  ``{"$nonfinite": "nan"|"inf"|"-inf"}`` sentinels (decoded losslessly
  by :meth:`ResultTable.from_json`) rather than emitted as bare
  ``NaN``/``Infinity`` tokens no strict parser accepts.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Sentinel key wrapping non-finite floats in JSON documents.
NONFINITE_KEY = "$nonfinite"

_NONFINITE_DECODE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}

#: Initial capacity of a freshly created column buffer.
_INITIAL_CAPACITY = 8


def encode_nonfinite(value):
    """``value`` with every non-finite float wrapped in a JSON sentinel.

    Recurses through dicts, lists and tuples; finite values come back
    unchanged, so encoding a finite-valued document is the identity and
    its JSON bytes match the pre-sentinel format exactly.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return {NONFINITE_KEY: "nan"}
        if value == math.inf:
            return {NONFINITE_KEY: "inf"}
        if value == -math.inf:
            return {NONFINITE_KEY: "-inf"}
        return value
    if isinstance(value, dict):
        return {k: encode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_nonfinite(v) for v in value]
    return value


def decode_nonfinite(value):
    """Inverse of :func:`encode_nonfinite`."""
    if isinstance(value, dict):
        if set(value) == {NONFINITE_KEY} and value[NONFINITE_KEY] in (
            _NONFINITE_DECODE
        ):
            return _NONFINITE_DECODE[value[NONFINITE_KEY]]
        return {k: decode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_nonfinite(v) for v in value]
    return value


def _dtype_for(value) -> np.dtype:
    """The narrowest column dtype that stores ``value`` losslessly."""
    if isinstance(value, (bool, np.bool_)):
        return np.dtype(np.bool_)
    if isinstance(value, (int, np.integer)):
        if -(2**63) <= int(value) < 2**63:
            return np.dtype(np.int64)
        return np.dtype(object)
    if isinstance(value, (float, np.floating)):
        return np.dtype(np.float64)
    return np.dtype(object)


def _fits(dtype: np.dtype, value) -> bool:
    """Whether ``value`` can join a column of ``dtype`` losslessly."""
    if dtype == np.dtype(object):
        return True
    if isinstance(value, (bool, np.bool_)):
        return dtype == np.dtype(np.bool_)
    if dtype == np.dtype(np.bool_):
        return False
    if isinstance(value, (int, np.integer)):
        return (
            dtype == np.dtype(np.int64)
            and -(2**63) <= int(value) < 2**63
        )
    if isinstance(value, (float, np.floating)):
        return dtype == np.dtype(np.float64)
    return False


class _Column:
    """One growable typed buffer (amortised O(1) append)."""

    __slots__ = ("_data", "_size")

    def __init__(self) -> None:
        self._data: np.ndarray | None = None
        self._size = 0

    @classmethod
    def from_values(cls, values) -> "_Column":
        """A column pre-filled from an array or list (codec fast path)."""
        col = cls()
        if isinstance(values, np.ndarray) and values.dtype != object:
            col._data = np.array(values)  # owned, writable copy
        else:
            col._data = np.empty(len(values), dtype=object)
            col._data[:] = list(values)
        col._size = len(col._data)
        return col

    def append(self, value) -> None:
        if self._data is None:
            self._data = np.empty(_INITIAL_CAPACITY, dtype=_dtype_for(value))
        elif not _fits(self._data.dtype, value):
            # Demote the whole column to object dtype, preserving the
            # already-stored python values exactly.
            widened = np.empty(max(len(self._data), _INITIAL_CAPACITY),
                               dtype=object)
            widened[: self._size] = self._data[: self._size].tolist()
            self._data = widened
        if self._size == len(self._data):
            grown = np.empty(2 * len(self._data), dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    def array(self) -> np.ndarray:
        """View of the stored values (no copy)."""
        if self._data is None:
            return np.empty(0, dtype=object)
        return self._data[: self._size]

    def tolist(self) -> list:
        """Values as plain python scalars/objects."""
        view = self.array()
        if view.dtype == object:
            return list(view)
        return view.tolist()


class ResultTable:
    """Records with a fixed column set, plus run metadata.

    Parameters
    ----------
    columns:
        Record keys, in presentation order.  When omitted, the first
        appended record locks the column set (unconditionally — an
        empty first record locks zero columns).
    records:
        Initial records, appended with the usual validation.
    metadata:
        Provenance: scenario dict, seed, workers, stopping info, …
    """

    def __init__(self, columns=None, records=None, metadata=None) -> None:
        self._columns: list[str] = []
        self._store: dict[str, _Column] = {}
        self._size = 0
        self._locked = False
        self.metadata: dict = metadata if metadata is not None else {}
        if columns:
            self._lock(list(columns))
        if records:
            self.extend(records)

    @classmethod
    def _from_columns(cls, columns, arrays, metadata) -> "ResultTable":
        """Assemble directly from per-column value sequences (codec path).

        All sequences must share one length; dtypes are taken as-is for
        numpy arrays and fall back to object for lists.
        """
        table = cls(metadata=metadata)
        table._lock(list(columns))
        sizes = {len(values) for values in arrays}
        if len(sizes) > 1:
            raise ValueError(f"ragged column lengths {sorted(sizes)}")
        table._size = sizes.pop() if sizes else 0
        for name, values in zip(table._columns, arrays):
            table._store[name] = _Column.from_values(values)
        return table

    def _lock(self, names: list[str]) -> None:
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._columns = list(names)
        self._store = {name: _Column() for name in names}
        self._locked = True

    # -- record API ---------------------------------------------------------

    @property
    def columns(self) -> list[str]:
        """Record keys, in presentation order (copy)."""
        return list(self._columns)

    @property
    def records(self) -> list[dict]:
        """One dict per trial / sweep point (materialised copy)."""
        if not self._columns:
            return [{} for _ in range(self._size)]
        lists = [self._store[name].tolist() for name in self._columns]
        return [dict(zip(self._columns, row)) for row in zip(*lists)]

    def append(self, record: dict) -> None:
        """Add one record; its keys must match the table's columns.

        The first record appended to an unlocked table locks the column
        set — even when it is empty, so a ragged table can never form.
        """
        if not self._locked:
            self._lock(list(record))
        elif set(record) != set(self._columns):
            extra = sorted(set(record) - set(self._columns))
            missing = sorted(set(self._columns) - set(record))
            raise ValueError(
                "record keys do not match columns "
                f"(extra {extra}, missing {missing})"
            )
        for name in self._columns:
            self._store[name].append(record[name])
        self._size += 1

    def extend(self, records) -> None:
        """Append many records (same validation per record)."""
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return (
            self._columns == other._columns
            and self.records == other.records
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:
        return (
            f"ResultTable(columns={self._columns!r}, "
            f"n_records={self._size})"
        )

    def _check_column(self, name: str) -> None:
        if name not in self._store:
            raise KeyError(f"no column {name!r}; have {self._columns}")

    def column(self, name: str) -> list:
        """One column's values across all records (python scalars)."""
        self._check_column(name)
        return self._store[name].tolist()

    def array(self, name: str) -> np.ndarray:
        """One column as a numpy array (a view — do not mutate)."""
        self._check_column(name)
        return self._store[name].array()

    def rows(self) -> list[tuple]:
        """Records as tuples in column order (for table rendering)."""
        if not self._columns:
            return [() for _ in range(self._size)]
        lists = [self._store[name].tolist() for name in self._columns]
        return list(zip(*lists))

    def sum(self, name: str) -> float:
        """Sum of a numeric column (0.0 when empty).

        Exact-dtype columns (bool/int) sum on the array; float and
        object columns use sequential python summation so results are
        bit-identical to the record-oriented container.
        """
        if not self._size:
            return 0.0
        values = self.array(name)
        if values.dtype.kind in "bi":
            return float(int(values.sum()))
        return float(sum(values.tolist()))

    def mean(self, name: str) -> float:
        """Mean of a numeric column (0.0 when empty)."""
        if not self._size:
            return 0.0
        values = self.array(name)
        if values.dtype.kind in "bi":
            return float(int(values.sum()) / self._size)
        return float(sum(values.tolist()) / self._size)

    # -- rendering ---------------------------------------------------------

    def format(self) -> str:
        """Fixed-width plain-text table (benchmark house style)."""
        from repro.analysis.reporting import format_table

        return format_table(list(self.columns), self.rows())

    # -- serialisation -----------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        """Strict JSON document with columns, records and metadata.

        Non-finite floats are wrapped as ``{"$nonfinite": …}`` sentinels
        (:func:`encode_nonfinite`); finite-valued tables serialise to
        exactly the bytes the pre-columnar container produced.
        """
        return json.dumps(
            {
                "columns": list(self._columns),
                "records": [encode_nonfinite(r) for r in self.records],
                "metadata": encode_nonfinite(self.metadata),
            },
            indent=indent,
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        """Inverse of :meth:`to_json`.

        Also accepts legacy documents carrying bare ``NaN``/``Infinity``
        tokens (the stdlib parser is lenient), so pre-sentinel store
        payloads stay readable.
        """
        data = json.loads(text)
        table = cls(
            columns=list(data["columns"]),
            metadata=decode_nonfinite(dict(data.get("metadata", {}))),
        )
        table.extend(
            decode_nonfinite(record) for record in data.get("records", [])
        )
        return table

    def to_csv(self) -> str:
        """CSV text with a header row (metadata is not included)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows())
        return buf.getvalue()
