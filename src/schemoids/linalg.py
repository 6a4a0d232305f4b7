"""Exact linear algebra over the rationals, prime fields and the rings Z/m.

No floating point is ever involved.  Systems are sparse rows {column:
coefficient}, and one exact elimination, with pivots keyed by column,
serves every ring.  Over Q the rows stay integral (divided by their
content); over Z/m the ring is split as m = prod p^k by the Chinese
remainder theorem, and over each local ring Z/p^k pivots are taken by
increasing valuation, so a pivot divides its whole row and column and no
remainder loop is needed (Howell 1986; Storjohann 2000).  `rank` works
over Q and F_p, `solve` works over Z/m, and `homology` returns ker / im as
invariant factors d_1 | d_2 | ... (over Z/m) or a free rank (over Q).
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_eq_mod(a, b, m: int | None) -> bool:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if m is None:
                if x != y:
                    return False
            elif (x - y) % m:
                return False
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Sparse exact elimination over Q, F_p and Z/p^k
# ---------------------------------------------------------------------------

SparseRow = dict[int, int]   # column -> nonzero coefficient


class _Echelon:
    """The pivot rows of one elimination over Z/p^k (k >= 1), or over Q when
    p is None (integer rows, divided by their content).

    Pivots are keyed by column and kept in creation order.  A pivot row has
    no entry in the column of any earlier pivot, and over Z/p^k every entry
    is divisible by p^u, u being the valuation of the pivot entry.  A row is
    reduced against the pivots of its columns earliest first; subtracting a
    pivot row only brings in columns of later pivots, so the reduction ends.

    Over a field (Q, or k = 1), `back_substitute` turns the pivot rows into
    the reduced echelon form of their span, which is unique.
    """

    def __init__(self, p: int | None, k: int):
        self.p = p
        self.q = None if p is None else p ** k
        self.rows: dict[int, SparseRow] = {}
        self.order: dict[int, int] = {}
        self.valuation: dict[int, int] = {}
        self.power: dict[int, int] = {}      # p^u, 1 over Q
        self.unit_inv: dict[int, int] = {}   # (pivot entry / p^u)^-1 mod q

    def reduce(self, row: SparseRow) -> None:
        """Clear every pivot column of row, in place."""
        rows, order = self.rows, self.order
        heap = [(order[c], c) for c in row if c in rows]
        if not heap:
            return
        heapify(heap)
        q = self.q
        while heap:
            c = heappop(heap)[1]
            x = row.get(c)
            if x is None:
                continue
            piv = rows[c]
            if q is None:
                a = piv[c]
                g = math.gcd(a, x)
                a, w = a // g, x // g
                if a != 1:
                    for j in row:
                        row[j] *= a
            else:
                w = x // self.power[c] * self.unit_inv[c] % q
            for j, y in piv.items():
                old = row.get(j)
                z = (0 if old is None else old) - w * y
                if q is not None:
                    z %= q
                if z:
                    row[j] = z
                    if old is None and j in rows:
                        heappush(heap, (order[j], j))
                elif old is not None:
                    del row[j]
        if q is None and row:
            g = math.gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g

    def add(self, row: SparseRow, col: int, u: int) -> None:
        x = row[col]
        if self.q is None:
            if x < 0:
                for j in row:
                    row[j] = -row[j]
            power, unit_inv = 1, 1
        else:
            power = self.p ** u
            unit_inv = pow(x // power, -1, self.q)
        self.order[col] = len(self.rows)
        self.rows[col] = row
        self.valuation[col] = u
        self.power[col] = power
        self.unit_inv[col] = unit_inv

    def back_substitute(self) -> dict[int, dict]:
        """The reduced echelon form over a field (Q, or F_p with k = 1): pivot
        column -> row, in increasing column order, each row with pivot entry
        1 and no entry in any other pivot column.  Entries are Fractions
        over Q and residues mod p over F_p.

        The rows go, latest pivot first, into a fresh elimination with the
        same pivots.  The other pivot columns of row j belong to pivots taken
        after j, whose rows are fully reduced by then; clearing them brings in
        no pivot column, and none of those rows has an entry in column j,
        which was a pivot before them.  So every row ends fully reduced.
        """
        ech = _Echelon(self.p, 1)
        for col in reversed(self.rows):
            row = dict(self.rows[col])
            ech.reduce(row)
            ech.add(row, col, 0)
        out = {}
        for col in sorted(ech.rows):
            row = ech.rows[col]
            if self.q is None:
                d = row[col]
                out[col] = {c: Fraction(x, d) for c, x in row.items()}
            else:
                inv = ech.unit_inv[col]
                out[col] = {c: x * inv % self.q for c, x in row.items()}
        return out

    def solution(self, rhs: int) -> dict[int, int] | None:
        """Back substitution, latest pivot first; free unknowns are 0."""
        q = self.q
        x: dict[int, int] = {}
        for j in reversed(self.rows):
            piv = self.rows[j]
            t = piv.get(rhs, 0)
            for c, y in piv.items():
                if c != j and c in x:
                    t -= y * x[c]
            t %= q
            power = self.power[j]
            # the other entries are multiples of power: only the
            # right-hand side decides solvability
            if t % power:
                return None
            x[j] = t // power * self.unit_inv[j] % q
        return x


def _eliminate(rows: list[SparseRow], p: int | None, k: int, rhs: int | None = None):
    """Echelon of rows (consumed) over Z/p^k, or over Q when p is None.

    Pivots are taken by increasing valuation: in stage v every row left has
    all its entries divisible by p^v, and a row takes a pivot at an entry of
    valuation exactly v or waits for the next stage.  The column rhs (a
    right-hand side) is reduced along but never pivots; None is returned
    when a row comes down to a nonzero right-hand side alone.
    """
    ech = _Echelon(p, k)
    for v in range(k):
        high = None if p is None else p ** (v + 1)
        waiting = []
        for row in rows:
            ech.reduce(row)
            col = next((c for c in row if c != rhs and (high is None or row[c] % high)), None)
            if col is not None:
                ech.add(row, col, v)
            elif len(row) > (rhs in row):
                waiting.append(row)
            elif row:
                return None
        rows = waiting
    return ech


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _local_rings(modulus: int) -> list[tuple[int, int]]:
    """(p, k) for every p^k exactly dividing modulus."""
    return sorted(_factor(modulus).items())


def _rows_over(rows, q: int | None) -> list[SparseRow]:
    """Fresh copies of rows reduced mod q; over Q (q None), integral multiples."""
    out = []
    for row in rows:
        if q is not None:
            new = {}
            for c, x in row.items():
                x %= q
                if x:
                    new[c] = x
        else:
            den = 1
            for x in row.values():
                den = math.lcm(den, x.denominator)
            new = {c: int(x * den) for c, x in row.items() if x}
        out.append(new)
    return out


def rank(rows, modulus: int | None = None) -> int:
    """Rank of sparse rows over Q (modulus None) or over F_p (modulus p)."""
    if modulus is not None and not is_prime(modulus):
        raise ValueError(f"rank needs a field, and Z/{modulus} is not one")
    return len(_eliminate(_rows_over(rows, modulus), modulus, 1).rows)


def solve(rows, rhs: list[int], ncols: int, modulus: int) -> list[int] | None:
    """One x in (Z/m)^ncols with rows @ x = rhs (mod m), or None.

    Solved over each Z/p^k exactly dividing m, the right-hand side riding
    along as column -1, and recombined by the Chinese remainder theorem.
    """
    x = [0] * ncols
    done = 1
    for p, k in _local_rings(modulus):
        q = p ** k
        system = _rows_over(rows, q)
        for row, b in zip(system, rhs):
            if b % q:
                row[-1] = b % q
        ech = _eliminate(system, p, k, rhs=-1)
        local = None if ech is None else ech.solution(-1)
        if local is None:
            return None
        step = pow(done, -1, q)
        for j in range(ncols):
            x[j] += done * ((local.get(j, 0) - x[j]) * step % q)
        done *= q
    return x


def homology(d_prev, d_n, modulus: int | None) -> tuple[tuple[int, ...], int]:
    """ker d_n / im d_prev for sparse integer differentials, over Q or Z/m.

    d_prev maps into the middle term and d_n out of it, so d_prev has one
    row per coordinate of the middle term.  Returns the invariant factors
    (d_1 | d_2 | ..., all > 1) and the free rank over Q.
    """
    if modulus is None:
        return (), _local_homology(d_prev, d_n, None, 1)[1]
    per_prime = []
    for p, k in _local_rings(modulus):
        valuations, full = _local_homology(d_prev, d_n, p, k)
        per_prime.append(sorted([p ** u for u in valuations] + [p ** k] * full, reverse=True))
    factors = []
    for i in range(max(map(len, per_prime))):
        d = 1
        for powers in per_prime:
            if i < len(powers):
                d *= powers[i]
        factors.append(d)
    return tuple(sorted(factors)), 0


def _local_homology(d_prev, d_n, p: int | None, k: int) -> tuple[list[int], int]:
    """ker d_n / im d_prev over Z/p^k (over Q when p is None): the
    valuations u >= 1 of its summands Z/p^u, and how many summands are all
    of Z/p^k (or Q).

    Eliminating the rows of d_n makes d_n V diagonal once the column
    operations col_c -= w col_j clear each pivot row j.  Only V^-1 is
    needed: in the coordinates y = V^-1 x, ker d_n is p^(k-u) Z/p^k at a
    pivot of valuation u and all of Z/p^k off the pivots, and V^-1 moves
    im d_prev there by adding w times row c of d_prev to row j.  The
    quotient is then the cokernel of the moved generators, read off the
    valuations of a second elimination.
    """
    q = None if p is None else p ** k
    ech = _eliminate(_rows_over(d_n, q), p, k)
    prev = _rows_over(d_prev, q)
    quotient = []
    for j, b in enumerate(prev):
        piv = ech.rows.get(j)
        if piv is None:
            quotient.append(b)
            continue
        power = ech.power[j]
        if power == 1:
            continue
        # the pivot row's other columns are free or later pivots, whose rows
        # of d_prev no column operation has moved yet
        moved = dict(b)
        inv = ech.unit_inv[j]
        for c, y in piv.items():
            if c != j:
                w = y // power * inv % q
                for s, z in prev[c].items():
                    moved[s] = moved.get(s, 0) + w * z
        scale = q // power
        row = {}
        for s, z in moved.items():
            z %= q
            if z:
                if z % scale:
                    raise ValueError("d_n ∘ d_prev is not zero")
                row[s] = z // scale
        row[-1 - j] = power            # the coordinate lives in Z/p^u
        quotient.append(row)
    ech2 = _eliminate(quotient, p, k)
    return [u for u in ech2.valuation.values() if u], len(quotient) - len(ech2.rows)
