"""Independent brute-force oracles for the test suite.

Everything here is deliberately written as the dumbest possible loops over
raw row tuples, sharing no code with the package's checkers or with the
pruned enumerator, so that agreement between the two is meaningful.
"""

from functools import lru_cache
from itertools import product


def neutral_holds(rows, e):
    n = len(rows) - 1
    return all(rows[e][x] == x for x in range(n + 1))


def monotone_holds(rows):
    n = len(rows) - 1
    for x in range(n + 1):
        for xp in range(x, n + 1):
            for y in range(n + 1):
                if rows[x][y] > rows[xp][y]:
                    return False
    return True


def associative_holds(rows):
    n = len(rows) - 1
    for a in range(n + 1):
        for b in range(n + 1):
            for c in range(n + 1):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return False
    return True


def find_assoc_defect(rows):
    """First triple (a, b, c) where associativity fails, or None."""
    n = len(rows) - 1
    for a in range(n + 1):
        for b in range(n + 1):
            for c in range(n + 1):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return (a, b, c)
    return None


def distributes(rows1, rows2):
    """Plain triple loop for u1(x, u2(y,z)) == u2(u1(x,y), u1(x,z))."""
    n = len(rows1) - 1
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                if rows1[x][rows2[y][z]] != rows2[rows1[x][y]][rows1[x][z]]:
                    return False
    return True


def find_distributivity_defect(rows1, rows2):
    n = len(rows1) - 1
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                lhs = rows1[x][rows2[y][z]]
                rhs = rows2[rows1[x][y]][rows1[x][z]]
                if lhs != rhs:
                    return (x, y, z, lhs, rhs)
    return None


def distributivity_defects(rows1, rows2):
    """Every (x, y, z, lhs, rhs) with y <= z where u1(x, u2(y,z)) and
    u2(u1(x,y), u1(x,z)) differ, in lexicographic order of (x, y, z)."""
    n = len(rows1) - 1
    defects = []
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                if y > z:
                    continue
                lhs = rows1[x][rows2[y][z]]
                rhs = rows2[rows1[x][y]][rows1[x][z]]
                if lhs != rhs:
                    defects.append((x, y, z, lhs, rhs))
    return defects


def triple_consistent(t, a, b, c):
    """Associativity at (a, b, c) of a partial table (-1 = unset), judged
    only when all four lookups are set."""
    ab = t[a][b]
    if ab < 0:
        return True
    bc = t[b][c]
    if bc < 0:
        return True
    left = t[ab][c]
    right = t[a][bc]
    return left < 0 or right < 0 or left == right


def assoc_ok_after(t, x, y):
    """Every triple whose four lookups are set, and that reads cell (x, y)
    or (y, x), is associative."""
    n = len(t) - 1
    cell = {(x, y), (y, x)}
    for a, b, c in product(range(n + 1), repeat=3):
        ab, bc = t[a][b], t[b][c]
        if ab < 0 or bc < 0:
            continue
        left, right = t[ab][c], t[a][bc]
        if left < 0 or right < 0:
            continue
        if cell.isdisjoint({(a, b), (b, c), (ab, c), (a, bc)}):
            continue
        if left != right:
            return False
    return True


def symmetric_neutral_tables(n, e):
    """Every symmetric table on L_n whose row e is the identity.

    Generated by assigning all upper-triangle cells independently over the
    full value range; no pruning of any kind.
    """
    cells = [(x, y) for x in range(n + 1) for y in range(x, n + 1) if x != e and y != e]
    base = [[-1] * (n + 1) for _ in range(n + 1)]
    for y in range(n + 1):
        base[e][y] = y
        base[y][e] = y
    for assignment in product(range(n + 1), repeat=len(cells)):
        rows = [row[:] for row in base]
        for (x, y), v in zip(cells, assignment):
            rows[x][y] = rows[y][x] = v
        yield tuple(tuple(row) for row in rows)


def naive_uninorms(n, e):
    """Wholesale-filter enumeration: all axioms tested on complete tables."""
    out = []
    for rows in symmetric_neutral_tables(n, e):
        if monotone_holds(rows) and associative_holds(rows):
            out.append(rows)
    return out


def _monotone_at(t, x, y):
    """Cell (x, y) of a partial table (-1 = unset) is in order with each set
    neighbour in its row and column."""
    n = len(t) - 1
    v = t[x][y]
    below = (t[x - 1][y] if x else -1, t[x][y - 1] if y else -1)
    above = (t[x + 1][y] if x < n else -1, t[x][y + 1] if y < n else -1)
    return all(w <= v for w in below) and all(w < 0 or v <= w for w in above)


def _backtrack(t, cells, values, out):
    """Append to ``out`` every symmetric completion of ``t`` over ``cells``,
    cell (x, y) taking the values ``values(x, y)``, that stays monotone at each
    new cell and associative on every triple whose four lookups are set."""
    if not cells:
        out.append(tuple(tuple(row) for row in t))
        return
    (x, y), rest = cells[0], cells[1:]
    pts = range(len(t))
    for v in values(x, y):
        t[x][y] = t[y][x] = v
        if _monotone_at(t, x, y) and all(triple_consistent(t, a, b, c)
                                         for a, b, c in product(pts, repeat=3)):
            _backtrack(t, rest, values, out)
    t[x][y] = t[y][x] = -1


@lru_cache(maxsize=None)
def tnorms(m):
    """Every t-norm on L_m: row 0 all 0, row m the identity, and each cell
    (x, y) with 0 < x <= y < m at most min(x, y)."""
    t = [[-1] * (m + 1) for _ in range(m + 1)]
    for x in range(m + 1):
        t[0][x] = t[x][0] = 0
        t[m][x] = t[x][m] = x
    out = []
    _backtrack(t, [(x, y) for x in range(1, m) for y in range(x, m)],
               lambda x, y: range(x + 1), out)
    return tuple(out)


def structure_uninorms(n, e):
    """Every uninorm on L_n with neutral e, from the structure theorem
    (Fodor, Yager, Rybalov, "Structure of uninorms", 1997): a t-norm on
    [0, e]^2, a t-conorm on [e, n]^2 (the dual of a t-norm on L_(n-e),
    shifted by e), and each cell x < e < y between min and max, x and y.
    Every table built is checked in full before it counts."""
    out = []
    for lower in tnorms(e):
        for upper in map(dual, tnorms(n - e)):
            t = [[-1] * (n + 1) for _ in range(n + 1)]
            for x in range(e + 1):
                t[x][:e + 1] = lower[x]
            for x in range(e, n + 1):
                t[x][e:] = [e + v for v in upper[x - e]]
            _backtrack(t, [(x, y) for x in range(e) for y in range(e + 1, n + 1)],
                       lambda x, y: range(x, y + 1), out)
    return [rows for rows in out
            if neutral_holds(rows, e) and monotone_holds(rows) and associative_holds(rows)]


def dual(rows):
    """Conjugate by the order reversal x -> n - x; swaps t-norms and t-conorms."""
    n = len(rows) - 1
    return tuple(tuple(n - rows[n - x][n - y] for y in range(n + 1)) for x in range(n + 1))


LOWER_SQUARE, UPPER_SQUARE, OFF_DIAGONAL = "lower-square", "upper-square", "off-diagonal"
REGIONS = (LOWER_SQUARE, UPPER_SQUARE, OFF_DIAGONAL)


def region_of(x, y, e):
    """Where a point lies against the squares around e.

    Boundary lines x = e and y = e belong to the squares, so the
    off-diagonal region is exactly {x < e < y} union {y < e < x}.
    """
    if x <= e and y <= e:
        return LOWER_SQUARE
    if x >= e and y >= e:
        return UPPER_SQUARE
    return OFF_DIAGONAL
