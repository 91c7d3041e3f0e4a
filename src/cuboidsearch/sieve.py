"""The search's residue sieve: which columns of a b row can pass level 0.

The edge cubic's discriminant at a nonsingular point off b = 0 is a
nonzero rational square times S(b, c) (``EDGE_DISC_S``), so a point is
past level 0 only if t = q^8 s^8 S(p/q, r/s) is a square.  As the bit
arrays of M. Stoll's ratpoints do, the sieve drops the columns at which t
has no square residue for some modulus.  t is a form of bidegree (8, 8)
in (p, q) and (r, s), so scaling either pair by a unit mod m multiplies
t by a unit eighth power, a square: whether t has a square residue
depends only on the classes of (p : q) and (r : s) in P^1(Z/m).

Each row holds one column bitset per modulus (``row_masks``), each built
by ``_class_masks`` from a table of the kept pairs of a row's and a
column's class in P^1 (``p1_classes``, over the representatives
``p1_points``):

  * the 2-adic mask: the cells of (v2(b), v2(c)) outside those the
    identities module proves empty (fact F3, ``SCREENED_C_CLASSES``,
    55-59% of the grid; a row with p and q odd keeps no column), read off
    the classes in P^1(Z/8) x P^1(Z/4) (``_two_adic_cells``);
  * for each odd modulus m that ``residue_moduli`` picks for the grid's
    size from ``RESIDUE_MODULI``, the pairs in P^1(Z/m) at which t has a
    square residue (fact F4, ``square_classes``).

A row piece ANDs its row's masks and reads the set bits
(``piece_columns``): off b = 0, 1,410 points of the 148M at H=100, of
which 398 are records.  The identities module proves F3 and F4 on this
module's own representatives, class map and tables.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul, or_

# The edge cubic's discriminant factors as
#
#     disc = b^2 * G^2 * S / (4 * f1^6 * f2^6 * Q^2)
#
# with f1, f2 and Q the singular factors.  Row i, column j holds the
# coefficient of b^i c^j in S; identities holds G and proves the identity.
EDGE_DISC_S = (
    (0, 0, 0, 0, 4, 0, 0, 0, 0),
    (0, 0, 0, 40, 0, -20, 0, 0, 0),
    (0, 0, 132, 64, -236, 32, 33, 0, 0),
    (0, 160, 432, -904, 0, 452, -108, -20, 0),
    (32, 784, -888, -1448, 2368, -724, -222, 98, 2),
    (192, 960, -3904, 3816, 0, -1908, 976, -120, -12),
    (400, -560, -1948, 5784, -6036, 2892, -487, -70, 25),
    (320, -1440, 2480, -1800, 0, 900, -620, 180, -20),
    (64, -384, 992, -1440, 1284, -720, 248, -48, 4),
)
# The 2-adic sieve: by v2(b), the c classes (v2(c) clamped to -1..2, c = 0
# in 2) that a row screens.  Every other cell (v2(b), class) with
# |v2(b)| <= 2 is empty: t = q^8 s^8 S is never a square there
# (identities.check_s_two_adic_cells mod 2^6 and 2^10, and the sigma
# mirror), so its points are at level 0.  Other rows screen every column.
SCREENED_C_CLASSES = {0: (), 1: (0, 1), 2: (0, 1), -1: (-1, 2), -2: (-1, 2)}
# The odd moduli m = l^k of the residue sieve.  A perfect square has a
# square residue, so a point whose class pair has none is at level 0
# (fact F4, identities.check_s_residue_classes).  The output does not
# depend on which moduli sieve, so the set is in neither the config digest
# nor the checkpoint.
#
# How many sieve a grid, by measured cost (2-vCPU Xeon, Python 3.11.7,
# warm jobs=1 runs).  Off b = 0, each odd prime past 37 keeps about half of
# the points the sieve still passes, nearly all of them level 0: at H=100
# the moduli up to 37 keep 214,737 points there, those up to 71 keep 1,410,
# and 398 are records.  Each point kept costs the discriminant test, 5-12
# us.  A prime costs its tables, 2-5 ms at H=30, 6-13 ms at H=100 and 25-45
# ms at H=200 for 41..71, and one AND per row.  The points a prime removes
# grow with the grid's size and its costs with the width, so each doubling
# of the size pays for about one more prime: ``residue_moduli`` adds one
# past 37 per bit of the size past 19.  That is none up to H=24, 41 from
# H=26, 41..43 at H=30, 41..61 at H=60 and 41..71 from H=100 on:
#   * H=16 (17 bits): 41 would remove 36 of 138 points, 0.2 ms, for 2.2 ms
#     of tables; at H=4 (10 bits) the 10 columns kept are all records;
#   * H=30 (21 bits): 41 and 43 save 3.3 and 2.1 ms for 2 ms of tables
#     each, and 47 saves 1.0 ms;
#   * H=60 (25 bits): 41..53 pay, and the runs up to 53, 59, 61 and 67
#     are within 3 ms of each other;
#   * H=100 and H=200: each of 41..71 pays or breaks even, and at H=200
#     73..89 gain nothing more (1.47, 1.41, 1.43 s up to 71, 79, 89).
# The prime powers 25, 27 and 49 did not pay at H=30 when measured.
RESIDUE_MODULI = (9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def residue_moduli(size: int) -> tuple[int, ...]:
    """The moduli that sieve a grid of ``size`` points: the first 11, one more per bit past 19."""
    return RESIDUE_MODULI[:11 + max(0, size.bit_length() - 19)]


def prime_of(m: int) -> int:
    """The prime l of a prime power m = l^k."""
    return next(d for d in range(2, m + 1) if m % d == 0)


def p1_points(m: int) -> list[tuple[int, int]]:
    """Representatives of P^1(Z/m), m = l^k, in ``p1_classes``' order: (x, 1), then (1, y)."""
    ell = prime_of(m)
    return [(x, 1) for x in range(m)] + [(1, y) for y in range(0, m, ell)]


def p1_classes(m: int, pairs) -> list[int]:
    """The class in P^1(Z/m), m = l^k, of each pair (a, b) that l does not divide twice.

    Class x < m is the point (x : 1), for b prime to l; class m + y/l is
    the point (1 : y), y a multiple of l, for l dividing b.
    """
    ell = prime_of(m)
    inverse = [pow(a, -1, m) if a % ell else 0 for a in range(m)]
    return [
        a * inverse[b % m] % m if b % ell else m + b * inverse[a % m] % m // ell
        for a, b in pairs
    ]


def v2(m: int, point: tuple[int, int]) -> int:
    """The v2 of the ratio of a point of P^1(Z/m), m = 2^k, an entry 0 read as divisible by m."""
    r, s = ((n | m) & -(n | m) for n in point)
    return r.bit_length() - s.bit_length()


def square_classes(
    m: int, row_classes, s_table: tuple = EDGE_DISC_S
) -> dict[int, tuple[bool, ...]]:
    """For each row class given, whether t has a square residue mod m at each column class.

    t is evaluated at the representatives ``p1_points``: at (p : q) and
    (r : s) it is the sum of S[i][j] p^i q^(d-i) r^j s^(e-j), d and e read
    off the table's shape (8 and 8 for S), so each representative's vector
    of a^k b^(d-k) mod m is built once and serves every row, and likewise
    for the columns.
    """
    points = p1_points(m)

    def powers(degree):
        return [tuple(a**k * b ** (degree - k) % m for k in range(degree + 1)) for a, b in points]

    columns = tuple(zip(*s_table))
    row_powers, column_powers = powers(len(s_table) - 1), powers(len(columns) - 1)
    squares = {y * y % m for y in range(m)}
    table = {}
    for kappa in row_classes:
        row = [sum(map(mul, column, row_powers[kappa])) for column in columns]
        table[kappa] = tuple(sum(map(mul, row, power)) % m in squares for power in column_powers)
    return table


def _two_adic_cells(m: int, row_classes) -> dict[int, tuple[bool, ...]]:
    """For each row class given, whether ``SCREENED_C_CLASSES`` keeps each column class.

    Rows are classed in P^1(Z/m), m = 2^k >= 8, columns in P^1(Z/4), by
    ``v2``; v2(c) is clamped to -1..2, and |v2(b)| >= 3, as at b = 0,
    keeps all.
    """
    columns = [max(v2(4, point), -1) for point in p1_points(4)]
    rows = [v2(m, point) for point in p1_points(m)]
    return {
        kappa: tuple(v in SCREENED_C_CLASSES.get(rows[kappa], range(-1, 3)) for v in columns)
        for kappa in row_classes
    }


def _column_bits(classes: bytes) -> dict[int, int]:
    """For each class that occurs, the bitset of the columns j with classes[j] in it.

    The classes, last column first, are read as a base-2 numeral with a 1
    where the class is the one wanted, so no loop runs per column.
    """
    last_first = classes[::-1]
    return {
        kappa: int(last_first.translate(b"0" * kappa + b"1" + b"0" * (255 - kappa)), 2)
        for kappa in set(classes)
    }


def _class_masks(row_m: int, col_m: int, keep, b_pairs: tuple, c_pairs: tuple) -> list[int]:
    """Each row's column mask: the columns whose class pair ``keep`` keeps.

    ``keep(row_m, classes)`` flags, for each row class in P^1(Z/row_m) that
    occurs, the kept column classes in P^1(Z/col_m).  A row class's mask,
    shared by its rows, ORs the kept column classes' bitsets.
    """
    classes = p1_classes(col_m, c_pairs)
    columns = _column_bits(bytes(classes))
    rows = classes if (row_m, b_pairs) == (col_m, c_pairs) else p1_classes(row_m, b_pairs)
    masks = {
        kappa: reduce(or_, (bits for k, bits in columns.items() if kept[k]), 0)
        for kappa, kept in keep(row_m, set(rows)).items()
    }
    return [masks[kappa] for kappa in rows]


def row_masks(b_pairs: tuple, c_pairs: tuple) -> tuple[tuple[int, ...], ...]:
    """Each row's column masks, bit j for column j: the 2-adic mask first, then the odd moduli.

    ``b_pairs`` and ``c_pairs`` are the coprime (numerator, denominator)
    pairs of the rows and columns; the odd moduli are those that
    ``residue_moduli`` picks for the grid's size.  A row holds references
    to masks shared by its class, so the masks take O(classes x width)
    memory.
    """
    masks = [_class_masks(8, 4, _two_adic_cells, b_pairs, c_pairs)]
    masks += [
        _class_masks(m, m, square_classes, b_pairs, c_pairs)
        for m in residue_moduli(len(b_pairs) * len(c_pairs))
    ]
    return tuple(zip(*masks))


def piece_columns(masks: tuple[int, ...], j0: int, j1: int) -> list[int]:
    """The columns j0 <= j < j1, ascending, whose bit is set in every mask.

    No mask has a bit past its row's end, so a whole row is not cut.
    """
    bits = reduce(and_, masks) >> j0
    if bits >> (j1 - j0):
        bits &= (1 << (j1 - j0)) - 1
    columns = []
    while bits:
        low = bits & -bits
        columns.append(j0 + low.bit_length() - 1)
        bits ^= low
    return columns
