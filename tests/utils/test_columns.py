"""IntColumn keeps record order across per-call values and blocks."""

import numpy as np
import pytest

from repro.utils.columns import IntColumn


def test_values_and_blocks_read_in_record_order():
    column = IntColumn()
    column.pending.extend([1, 2])
    column.add(np.array([3, 4]))
    column.add(np.array([5]))
    column.pending.append(6)
    assert len(column) == 6
    first = column.array()
    assert first.dtype == np.int64 and first.tolist() == [1, 2, 3, 4, 5, 6]
    column.add(np.array([7]))
    column.pending.append(8)
    assert column.array().tolist() == list(range(1, 9))
    # An earlier read does not change, and no read can be written to.
    assert first.tolist() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        first[0] = 0


def test_a_value_past_int64_makes_an_object_column():
    column = IntColumn()
    column.add(np.array([1]))
    column.pending.append(2 ** 64)
    values = column.array()
    assert values.dtype == object and values.tolist() == [1, 2 ** 64]
    with pytest.raises(OverflowError):
        values.astype(np.int64)


def test_an_empty_column_is_int64():
    assert IntColumn().array().dtype == np.int64
