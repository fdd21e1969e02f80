"""Independent brute-force oracles for the test suite.

Everything here is deliberately written as the dumbest possible loops over
raw row tuples, sharing no code with the package's checkers or with the
pruned enumerator, so that agreement between the two is meaningful.
"""

from functools import lru_cache
from itertools import chain, product
from operator import itemgetter


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


def row_distributive_pairs(firsts, seconds):
    """The (i1, i2) with firsts[i1] distributing over seconds[i2], in
    lexicographic order, tested row by row: each distinct row of the firsts
    against each second table, as an endomorphism over the cells y <= z.

    The reference for the column-wise ``distributive_pairs``, which replaced
    this form in the package.  It takes the stacks as that kernel has checked
    them: square tables on one chain, ints only, symmetric seconds.
    """
    if not firsts or not seconds:
        return []
    m, ids = len(firsts[0]), {}
    uses = [{ids.setdefault(tuple(row), len(ids)) for row in t} for t in firsts]
    pairs = [(y, z) for y in range(m) for z in range(y, m)]
    # u2(u1(x, y), u1(x, z)), read from u2's flattened table by one getter per row
    right = [(row, itemgetter(*[row[y] * m + row[z] for y, z in pairs])) for row in ids]
    kept = []  # per second table, the ids of the rows that are its endomorphisms
    for b in seconds:
        flat = tuple(chain.from_iterable(b))
        left = itemgetter(*[b[y][z] for y, z in pairs])  # u1(x, u2(y, z))
        kept.append({i for i, (row, gets) in enumerate(right) if left(row) == gets(flat)})
    return [(i1, i2) for i1, used in enumerate(uses) for i2, ok in enumerate(kept) if used <= ok]


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


def backtracked_uninorms(n, e):
    """The tables of ``naive_uninorms``, in its order, by backtracking: each
    cell outside row e takes every value, and a partial table is dropped as
    soon as its set cells break monotonicity or associativity."""
    t = [[-1] * (n + 1) for _ in range(n + 1)]
    for y in range(n + 1):
        t[e][y] = t[y][e] = y
    out = []
    _backtrack(t, [(x, y) for x in range(n + 1) for y in range(x, n + 1) if e not in (x, y)],
               lambda x, y: range(n + 1), out)
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


class _WitnessLog:
    """Keeps the first violation of each (subject, law), or all when verbose."""

    def __init__(self, verbose):
        self.verbose = verbose
        self.items = []
        self.seen = set()

    def add(self, law, witness, lhs=None, rhs=None, subject="", detail=""):
        if self.verbose or (subject, law) not in self.seen:
            self.seen.add((subject, law))
            self.items.append((law, witness, lhs, rhs, subject, detail))


def axiom_violations(rows, e, verbose):
    """The uninorm axioms' violations for (rows, e), as (law, witness, lhs,
    rhs, subject, detail) tuples: neutrality at each x, monotonicity down
    each column from row x to x + 1, associativity at each (x, y, z) with
    x <= z, each law in lexicographic order and all added to one log.  An e
    outside the chain is one structure violation and nothing else."""
    n = len(rows) - 1
    log = _WitnessLog(verbose)
    if not 0 <= e <= n:
        log.add("structure", (e,), detail=f"neutral index outside chain 0..{n}")
        return log.items
    for x in range(n + 1):
        if rows[e][x] != x:
            log.add("neutrality", (x,), rows[e][x], x)
    for x in range(n):
        for y in range(n + 1):
            if rows[x][y] > rows[x + 1][y]:
                log.add("monotonicity", (x, x + 1, y), rows[x][y], rows[x + 1][y])
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                lhs, rhs = rows[rows[x][y]][z], rows[x][rows[y][z]]
                if x <= z and lhs != rhs:
                    log.add("associativity", (x, y, z), lhs, rhs)
    return log.items


def necessity_violations(rows1, e1, rows2, e2, verbose):
    """The necessity battery's violations for u1 = (rows1, e1) and u2 = (rows2, e2),
    e1 != e2, as (law, witness, lhs, rhs, subject, detail) tuples.

    Each battery is one loop over the pair reading u(x, y), and all of them add
    to one log in battery order: u2 = min/max on its square; u1 and then u2
    keep the first argument against the near range; on strip x far, point by
    point, agreement, choice and the side condition; then u2's local
    internality on A(e2).  The less case is the greater case reflected.
    """
    n = len(rows1) - 1

    def u1(x, y):
        return rows1[x][y]

    def u2(x, y):
        return rows2[x][y]

    if e1 > e2:
        side, strip, near, far = range(e2 + 1), range(e2), range(e2, e1 + 1), range(e1, n + 1)
        op, unit = min, "tnorm-min"
    else:
        side, strip, near, far = range(e2, n + 1), range(e2 + 1, n + 1), range(e1, e2 + 1), range(e1 + 1)
        op, unit = max, "tconorm-max"

    log = _WitnessLog(verbose)
    for x in side:
        for y in side:
            if x <= y and u2(x, y) != op(x, y):
                log.add(f"necessity-i-{unit}", (x, y), u2(x, y), op(x, y), "u2")
    for x in side:
        for y in near:
            if u1(x, y) != x:
                log.add(f"necessity-ii-u1-{op.__name__}", (x, y), u1(x, y), x, "u1")
    for x in strip:
        for y in near:
            if u2(x, y) != x:
                log.add(f"necessity-iii-u2-{op.__name__}", (x, y), u2(x, y), x, "u2")
    for x in strip:
        for y in far:
            if u1(x, y) != u2(x, y):
                log.add("necessity-iv-agreement", (x, y), u1(x, y), u2(x, y))
            elif u1(x, y) not in (x, y):
                log.add("necessity-iv-choice", (x, y), u1(x, y))
            if u2(x, y) == y and u2(y, y) != y:
                log.add("necessity-iv-side-condition", (x, y), u2(y, y), y, "u2")
    for x in range(e2):
        for y in range(e2 + 1, n + 1):
            if u2(x, y) not in (x, y):
                log.add("necessity-local-internality", (x, y), u2(x, y), None, "u2")
    return log.items


def condition_violations(rows1, e1, rows2, e2, verbose):
    """The case conditions' violations for u1 = (rows1, e1) and u2 = (rows2, e2),
    as (law, witness, lhs, rhs, subject, detail) tuples.

    Every clause is one loop over the pair reading u(x, y), and all of them
    add to one log in clause order; clause iii's distributivity is the
    brute-force ``distributivity_defects`` of the inner block over u2's
    boundary block.
    """
    n = len(rows1) - 1

    def u1(x, y):
        return rows1[x][y]

    def u2(x, y):
        return rows2[x][y]

    log = _WitnessLog(verbose)

    def agree_and_choose(xs, ys, agreement, choice):
        for x in xs:
            for y in ys:
                a, b = u1(x, y), u2(x, y)
                if a != b:
                    log.add(agreement, (x, y), a, b)
                elif a not in (x, y):
                    log.add(choice, (x, y), a)

    if e1 == e2:
        for x in range(n + 1):
            if u2(x, x) != x:
                log.add("idempotency", (x,), u2(x, x), x, "u2")
        agree_and_choose(range(e1), range(e1 + 1, n + 1), "agreement", "local-internality")
        return log.items

    if e1 > e2:
        block, side, strip = range(e2, n + 1), range(e2 + 1), range(e2)
        near, far, op, unit = range(e2, e1 + 1), range(e1, n + 1), min, "tnorm-min"
        leak = "upper block leaks below e2, no inner uninorm exists"
        subchain = "indices shifted by -e2 onto the upper subchain"
    else:
        block, side, strip = range(e2 + 1), range(e2, n + 1), range(e2 + 1, n + 1)
        near, far, op, unit = range(e1, e2 + 1), range(e1 + 1), max, "tconorm-max"
        leak = "lower block leaks above e2, no inner uninorm exists"
        subchain = "restricted to the lower subchain"
    lo = block[0]

    for x in side:
        for y in range(x, side.stop):
            if u2(x, y) != op(x, y):
                log.add(f"hypothesis-{unit}", (x, y), u2(x, y), op(x, y), "u2")
    for x in range(e2):
        for y in range(e2 + 1, n + 1):
            if u2(x, y) not in (x, y):
                log.add("hypothesis-local-internality", (x, y), u2(x, y), None, "u2")

    agree_and_choose(strip, block, "clause-i-agreement", "clause-i-choice")
    for x in strip:
        for y in far:
            if u2(x, y) == y and u2(y, y) != y:
                log.add("clause-i-side-condition", (x, y), u2(y, y), y, "u2",
                        "second argument picked at a non-idempotent point")

    for x in strip:
        for y in near:
            for u, subject in ((u1, "u1"), (u2, "u2")):
                if u(x, y) != x:
                    log.add(f"clause-ii-{op.__name__}", (x, y), u(x, y), x, subject)

    closed = True
    for x in block:
        for y in range(x, block.stop):
            if u1(x, y) not in block:
                closed = False
                log.add("clause-iii-closure", (x, y), u1(x, y), e2, "u1", leak)
    if closed:
        inner = [[u1(x, y) - lo for y in block] for x in block]
        boundary = [[u2(x, y) - lo for y in block] for x in block]
        for x, y, z, lhs, rhs in distributivity_defects(inner, boundary):
            log.add("clause-iii-distributivity", (x, y, z), lhs, rhs, "", subchain)
    return log.items
