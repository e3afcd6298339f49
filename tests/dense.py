"""Dense generator tables in the integer column form the LP primitives take.

The package holds every generator as an integer column (lp.IntVector) from
the local cone to the LP; tests that state their generators as dense tables
convert them here, and check certificates against them with the same exact
integer checks the primitives run.
"""

from credalcones.lp import _combines, _int_vector, _separates


def int_columns(tables):
    """Each dense table as an integer column (lp.IntVector)."""
    return [_int_vector(enumerate(t)) for t in tables]


def is_witness(tables, target, pairs):
    """The (index, coefficient) pairs, all nonnegative, combine the tables
    to the target."""
    return _combines(int_columns(tables), tuple(pairs), _int_vector(enumerate(target)))


def is_separator(tables, target, y):
    """y scores every table nonnegative and the target negative."""
    return _separates(int_columns(tables), _int_vector(enumerate(target)), y)
