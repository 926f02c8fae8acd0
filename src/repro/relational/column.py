"""Typed columns, including dictionary-encoded strings."""

from __future__ import annotations

import datetime
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import SchemaError
from repro.relational.types import (
    ColumnType,
    TypeLike,
    as_column_type,
    date_to_days,
    days_to_date,
    infer_column_type,
)


class Column:
    """An immutable, named, typed column of values.

    ``data`` always holds the *physical* representation (codes for strings,
    epoch days for dates).  Use :meth:`to_values` for logical values.
    """

    def __init__(
        self,
        name: str,
        ctype: TypeLike,
        data: np.ndarray,
        dictionary: Optional[List[str]] = None,
    ) -> None:
        if not name:
            raise SchemaError("column name cannot be empty")
        self.name = name
        self.ctype = as_column_type(ctype)
        expected = self.ctype.numpy_dtype
        if data.dtype != expected:
            raise SchemaError(
                f"column {name!r}: physical dtype {data.dtype} does not match "
                f"{self.ctype.value} (expects {expected})"
            )
        if data.ndim != 1:
            raise SchemaError(f"column {name!r}: data must be 1-D")
        self.data = np.ascontiguousarray(data)
        if self.ctype.is_dictionary_encoded:
            if dictionary is None:
                raise SchemaError(f"string column {name!r} needs a dictionary")
            if len(data) and (data.min() < 0 or data.max() >= len(dictionary)):
                raise SchemaError(
                    f"string column {name!r}: code out of dictionary range"
                )
        elif dictionary is not None:
            raise SchemaError(
                f"column {name!r}: only string columns carry a dictionary"
            )
        self.dictionary = dictionary

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        name: str,
        values: Sequence[object],
        ctype: Optional[TypeLike] = None,
    ) -> "Column":
        """Build a column from logical Python/NumPy values, encoding strings
        and dates into their physical forms."""
        if ctype is not None:
            resolved = as_column_type(ctype)
        else:
            probe = np.asarray(values)
            if probe.dtype.kind == "O" and len(values) and isinstance(
                values[0], datetime.date
            ):
                resolved = ColumnType.DATE
            else:
                resolved = infer_column_type(probe)
        if resolved is ColumnType.STRING:
            return cls.from_strings(name, [str(v) for v in values])
        if resolved is ColumnType.DATE:
            days = np.fromiter(
                (
                    v if isinstance(v, (int, np.integer)) else date_to_days(v)
                    for v in values
                ),
                dtype=np.int32,
                count=len(values),
            )
            return cls(name, resolved, days)
        data = np.asarray(values, dtype=resolved.numpy_dtype)
        return cls(name, resolved, data)

    @classmethod
    def from_strings(cls, name: str, values: Iterable[str]) -> "Column":
        """Dictionary-encode a string sequence."""
        values = list(values)
        dictionary = sorted(set(values))
        index = {word: code for code, word in enumerate(dictionary)}
        codes = np.fromiter(
            (index[v] for v in values), dtype=np.int32, count=len(values)
        )
        return cls(name, ColumnType.STRING, codes, dictionary)

    @classmethod
    def from_codes(
        cls, name: str, codes: np.ndarray, dictionary: List[str]
    ) -> "Column":
        """Wrap pre-encoded string codes with their dictionary."""
        return cls(
            name, ColumnType.STRING, codes.astype(np.int32, copy=False), dictionary
        )

    # -- accessors -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        """Physical payload size (what would travel to the device)."""
        return int(self.data.nbytes)

    @cached_property
    def max_value(self) -> int:
        """Largest physical value (0 when empty), computed once: the
        column is immutable."""
        return int(self.data.max()) if len(self.data) else 0

    def code_for(self, value: str) -> int:
        """Dictionary code for a string literal (for pushing string
        predicates down to the device as integer comparisons)."""
        if not self.ctype.is_dictionary_encoded:
            raise SchemaError(f"column {self.name!r} is not dictionary-encoded")
        assert self.dictionary is not None
        try:
            # Dictionary is sorted: binary search keeps order-preserving
            # encoding, so range predicates on strings stay valid.
            import bisect

            position = bisect.bisect_left(self.dictionary, value)
            if self.dictionary[position] != value:
                raise IndexError
            return position
        except IndexError:
            raise KeyError(
                f"value {value!r} not present in column {self.name!r} dictionary"
            )

    def to_values(self) -> Union[np.ndarray, List[object]]:
        """Decode to logical values (strings/dates decoded)."""
        if self.ctype.is_dictionary_encoded:
            assert self.dictionary is not None
            return [self.dictionary[code] for code in self.data]
        if self.ctype is ColumnType.DATE:
            return [days_to_date(v) for v in self.data]
        return self.data.copy()

    def take(self, indices: np.ndarray) -> "Column":
        """New column with rows gathered at ``indices``."""
        return Column(
            self.name,
            self.ctype,
            np.ascontiguousarray(self.data[indices]),
            self.dictionary,
        )

    def rename(self, name: str) -> "Column":
        """Copy of the column under a new name."""
        return Column(name, self.ctype, self.data, self.dictionary)

    def __repr__(self) -> str:
        return (
            f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"
        )

    def equals(self, other: "Column") -> bool:
        """Value equality (used by tests)."""
        if self.ctype is not other.ctype or len(self) != len(other):
            return False
        if self.ctype.is_dictionary_encoded:
            return self.to_values() == other.to_values()
        if self.ctype in (ColumnType.FLOAT32, ColumnType.FLOAT64):
            return bool(np.allclose(self.data, other.data, equal_nan=True))
        return bool(np.array_equal(self.data, other.data))
