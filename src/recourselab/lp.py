"""Dense linear programming kernel.

Revised primal simplex with Dantzig pricing that falls back to Bland's
anti-cycling rule after a streak of degenerate pivots. A >= row with b = 0
is negated into a <= row whose slack is basic at 0; the other == and >= rows
would start on phase-1 artificials. Before that, a solve tries a crash basis
(Bixby 1992): a lower-triangular basis of structural columns on those rows,
plus columns that repair the <= rows they push below zero. When it
refactors and is feasible, the solve goes straight to phase 2; when it does
not exist by that rule, is singular or is infeasible, the solve starts from
the slacks and artificials. Phase 1 runs only when an artificial is basic,
so infeasibility is still classified by phase 1 alone.
The dense basis inverse gets rank-1 updates on the support of the pivot row
and is rebuilt every `refactor_every` pivots from a block-triangular split
(single-nonzero columns on their own rows, a dense inverse for the rest),
with a dense inverse as the fallback.
Variables with finite lower bounds are shifted to zero, variables bounded
only above are reflected, free variables are split into positive and
negative parts; finite upper bounds become explicit rows. Built for
desk-scale instances where exactness and determinism matter more than
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LE = "<="
EQ = "=="
GE = ">="
ROW_SENSES = (LE, EQ, GE)

MIN = "min"
MAX = "max"


class LpInputError(ValueError):
    """Malformed LP data (dimension mismatch, NaN entries, bad senses)."""


class LpNumericalError(RuntimeError):
    """Numerical breakdown: singular basis beyond pivot tolerance, iteration cap."""


@dataclass(frozen=True)
class SimplexOptions:
    feas_tol: float = 1e-8
    opt_tol: float = 1e-8
    pivot_tol: float = 1e-10
    refactor_every: int = 50
    max_iters: int = 0  # 0 -> automatic cap from problem size


DEFAULT_OPTIONS = SimplexOptions()


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise LpInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise LpInputError(f"{name} contains NaN")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """min/max c.x subject to A x (<=|==|>=) b and lb <= x <= ub."""

    sense: str
    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise LpInputError(f"sense must be '{MIN}' or '{MAX}'")
        c = _as_float_array(self.c, "c", 1)
        A = _as_float_array(self.A, "A", 2)
        b = _as_float_array(self.b, "b", 1)
        lb = _as_float_array(self.lb, "lb", 1)
        ub = _as_float_array(self.ub, "ub", 1)
        m, n = A.shape
        if c.shape != (n,) or lb.shape != (n,) or ub.shape != (n,):
            raise LpInputError("c/lb/ub length must match the number of columns of A")
        if b.shape != (m,) or len(self.senses) != m:
            raise LpInputError("b length and senses count must match the number of rows of A")
        for s in self.senses:
            if s not in ROW_SENSES:
                raise LpInputError(f"unknown row sense {s!r}")
        if np.isinf(c).any() or np.isinf(A).any() or np.isinf(b).any():
            raise LpInputError("c, A, b must be finite")
        if np.any(lb > ub):
            raise LpInputError("lb > ub for some variable")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "senses", tuple(self.senses))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @staticmethod
    def minimize(c, A, senses, b, lb=None, ub=None) -> "LinearProgram":
        return LinearProgram._build(MIN, c, A, senses, b, lb, ub)

    @staticmethod
    def maximize(c, A, senses, b, lb=None, ub=None) -> "LinearProgram":
        return LinearProgram._build(MAX, c, A, senses, b, lb, ub)

    @staticmethod
    def _build(sense, c, A, senses, b, lb, ub) -> "LinearProgram":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.shape[0]
        if lb is None:
            lb = np.zeros(n)
        if ub is None:
            ub = np.full(n, np.inf)
        lb = np.broadcast_to(np.asarray(lb, dtype=float), (n,)).copy()
        ub = np.broadcast_to(np.asarray(ub, dtype=float), (n,)).copy()
        try:
            A = np.asarray(A, dtype=float).reshape(len(senses) if np.size(A) else 0, n)
        except ValueError as exc:
            raise LpInputError(f"A cannot be shaped to {len(senses)} x {n}: {exc}") from exc
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return LinearProgram(sense, c, A, tuple(senses), b, lb, ub)


@dataclass(frozen=True)
class LpOutcome:
    """Solve result. Duals are reported in minimization convention; for a
    max problem they refer to the equivalent min of -c (dual_objective
    handles the sign when recovering the dual bound)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    x: np.ndarray | None
    y: np.ndarray | None  # one dual per original row
    basis: tuple[int, ...]  # original-variable indices basic at optimum
    dual_lb: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    iterations: int = 0


# --- standard-form transformation -------------------------------------------

def _transform(lp: LinearProgram):
    """Rewrite variables to xhat >= 0; finite upper bounds become rows.

    Returns Ahat, bhat, senses, chat, the original variable and sign of each
    structural column (a free variable gets a +1 and a -1 column), the shift
    x = shift + sign * xhat, and the structural column of each upper-bound
    row, which follow the rows of A.
    """
    n = lp.n
    has_lo = np.isfinite(lp.lb)
    has_hi = np.isfinite(lp.ub)
    split = ~has_lo & ~has_hi
    width = np.where(split, 2, 1)
    orig = np.repeat(np.arange(n), width)
    first = np.cumsum(width) - width  # the first structural column of each variable
    sign = np.ones(orig.size)
    sign[first[has_hi & ~has_lo]] = -1.0  # bounded only above: x = ub - xhat
    sign[first[split] + 1] = -1.0  # the negative part of a free variable
    shift = np.where(has_lo, lp.lb, np.where(has_hi, lp.ub, 0.0))
    ub_cols = first[has_lo & has_hi]
    Ahat = np.zeros((lp.m + ub_cols.size, orig.size))
    np.multiply(lp.A[:, orig], sign, out=Ahat[: lp.m])
    Ahat[lp.m + np.arange(ub_cols.size), ub_cols] = 1.0
    bhat = lp.b - lp.A @ shift
    if ub_cols.size:
        bhat = np.concatenate([bhat, (lp.ub - lp.lb)[has_lo & has_hi]])
    senses = list(lp.senses) + [LE] * ub_cols.size
    chat = lp.c[orig] * sign
    if lp.sense == MAX:
        chat = -chat
    return Ahat, bhat, senses, chat, orig, sign, shift, ub_cols


# --- simplex core ------------------------------------------------------------

# zero-step pivots in a row before pricing turns from Dantzig to Bland
DEGENERATE_STREAK = 50
_INVERSE_RESIDUAL_TOL = 1e-6


def _block_inverse(B: np.ndarray) -> np.ndarray:
    """Inverse of a basis matrix whose single-nonzero columns (slacks,
    artificials, singleton structurals) are split off first.

    With the singleton columns S on their rows R_S and the other columns N on
    the remaining rows R_N, B is block upper-triangular,
    [[D, B12], [0, B22]] with D diagonal, so only the k x k block B22 goes
    through a dense inverse: B^-1 = [[D^-1, -D^-1 B12 B22^-1], [0, B22^-1]].
    Raises LpNumericalError for a singular basis.
    """
    m = B.shape[0]
    nonzero = B != 0.0
    is_single = np.count_nonzero(nonzero, axis=0) == 1
    single = np.flatnonzero(is_single)
    other = np.flatnonzero(~is_single)
    single_rows = nonzero[:, single].argmax(axis=0)
    rest = np.ones(m, dtype=bool)
    rest[single_rows] = False
    other_rows = np.flatnonzero(rest)
    if other_rows.size != other.size:
        raise LpNumericalError("singular basis: two single-nonzero columns share a row")
    dinv = 1.0 / B[single_rows, single]
    Binv = np.zeros((m, m), order="F")
    Binv[single, single_rows] = dinv
    if other.size:
        try:
            inner = np.linalg.inv(B[other_rows][:, other])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis block: {exc}") from exc
        Binv[np.ix_(other, other_rows)] = inner
        upper = B[single_rows][:, other] @ inner
        upper *= -dinv[:, None]
        Binv[np.ix_(single, other_rows)] = upper
    return Binv


def _inverse_residual(Binv: np.ndarray, B: np.ndarray) -> float:
    """max |Binv B - I| (nan when the product is not finite)."""
    R = Binv @ B
    R.flat[:: R.shape[0] + 1] -= 1.0
    return float(np.abs(R, out=R).max())


class _Tableau:
    """Revised simplex state over the augmented column matrix."""

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: list[int], opts: SimplexOptions):
        self.A = A
        self.b = b
        self.basis = np.array(basis, dtype=np.intp)
        self.opts = opts
        self.m = A.shape[0]
        self.pivots_since_refactor = 0
        self.iterations = 0
        self._refactor()

    def _refactor(self):
        if self.m == 0:
            self.Binv = np.zeros((0, 0))
            self.xB = np.zeros(0)
            self.pivots_since_refactor = 0
            return
        self.Binv = None  # release the old inverse before building the new one
        B = self.A[:, self.basis]
        # the block-triangular inverse, and once more from a dense inverse
        # when its residual is off
        try:
            Binv = _block_inverse(B)
            resid = _inverse_residual(Binv, B)
        except LpNumericalError:
            resid = np.inf
        if not resid <= _INVERSE_RESIDUAL_TOL:
            try:
                Binv = np.asfortranarray(np.linalg.inv(B))
            except np.linalg.LinAlgError as exc:
                raise LpNumericalError(f"singular basis {self.basis.tolist()}: {exc}") from exc
            resid = _inverse_residual(Binv, B)
            if not resid <= _INVERSE_RESIDUAL_TOL:
                raise LpNumericalError(f"basis inverse residual {resid:.2e} beyond pivot tolerance")
        self.Binv = Binv
        self.xB = Binv @ self.b
        self.pivots_since_refactor = 0

    def column(self, q: int) -> np.ndarray:
        """Binv @ A[:, q], over the nonzeros of column q."""
        a = self.A[:, q]
        nz = np.flatnonzero(a)
        return self.Binv[:, nz] @ a[nz]

    def pivot(self, q: int, r: int, d: np.ndarray, theta: float):
        self.xB = self.xB - theta * d
        self.xB[r] = theta
        self.basis[r] = q
        piv = d[r]
        if abs(piv) <= self.opts.pivot_tol:
            raise LpNumericalError(f"pivot element {piv:.2e} below pivot tolerance")
        # product-form update of the inverse, on the columns where the pivot
        # row is nonzero (elsewhere it subtracts zeros); Binv is column-major,
        # so those columns are contiguous rows of its transpose
        row = self.Binv[r, :] / piv
        cols = np.flatnonzero(row)
        self.Binv.T[cols, :] -= np.outer(row[cols], d)
        self.Binv[r, :] = row
        self.pivots_since_refactor += 1
        self.iterations += 1
        if self.pivots_since_refactor >= self.opts.refactor_every:
            self._refactor()

    def run(self, cost: np.ndarray, eligible: np.ndarray, is_artificial: np.ndarray | None = None) -> str:
        """Primal simplex with Dantzig pricing; returns 'optimal' or 'unbounded'.

        After DEGENERATE_STREAK zero-step pivots in a row, pricing follows
        Bland's rule until a pivot moves, which rules out cycling.

        is_artificial marks artificial columns; when a row holding a
        zero-valued basic artificial can be pivoted on, the artificial is
        expelled first so it can never regrow.
        """
        opts = self.opts
        ncols = self.A.shape[1]
        cap = opts.max_iters or (10000 + 50 * (self.m + ncols))
        # only columns up to the last eligible one can enter (artificials come last)
        width = int(np.flatnonzero(eligible)[-1]) + 1 if eligible.any() else 0
        A_priced = self.A[:, :width]
        open_cols = eligible[:width].copy()
        open_cols[self.basis[self.basis < width]] = False
        streak = 0
        while True:
            if self.iterations > cap:
                raise LpNumericalError(f"iteration cap {cap} exceeded")
            y = cost[self.basis] @ self.Binv
            reduced = cost[:width] - y @ A_priced
            candidates = np.flatnonzero((reduced < -opts.opt_tol) & open_cols)
            if candidates.size == 0:
                return "optimal"
            if streak < DEGENERATE_STREAK:
                # Dantzig: the most negative reduced cost, lowest index on ties
                q = int(candidates[np.argmin(reduced[candidates])])
            else:
                q = int(candidates[0])  # Bland: lowest index enters
            d = self.column(q)
            r = self._leaving_row(d, is_artificial)
            if r is None:
                return "unbounded"
            leaving = self.basis[r]
            if leaving < width:
                open_cols[leaving] = eligible[leaving]
            open_cols[q] = False
            theta = max(self.xB[r] / d[r], 0.0) if abs(d[r]) > opts.pivot_tol else 0.0
            streak = 0 if theta > 0.0 else streak + 1
            self.pivot(q, r, d, theta)

    def _leaving_row(self, d: np.ndarray, is_artificial: np.ndarray | None) -> int | None:
        opts = self.opts
        # expel a zero-valued basic artificial whenever its row moves at all;
        # the lowest such row goes first
        if is_artificial is not None and self.m:
            stuck = np.flatnonzero(is_artificial[self.basis] & (np.abs(d) > opts.pivot_tol)
                                   & (self.xB <= opts.feas_tol))
            if stuck.size:
                return int(stuck[0])
        pos = np.flatnonzero(d > opts.pivot_tol)
        if pos.size == 0:
            return None
        ratios = self.xB[pos] / d[pos]
        theta = ratios.min()
        ties = pos[ratios <= theta + 1e-12 * (1.0 + abs(theta))]
        # Bland: among ties, leave the row whose basic variable index is lowest
        return int(ties[np.argmin(self.basis[ties])])


def solve_lp(lp: LinearProgram, options: SimplexOptions = DEFAULT_OPTIONS) -> LpOutcome:
    """Solve a dense LP; classifies optimal / infeasible / unbounded."""
    Ahat, bhat, senses, chat, orig, sign, shift, ub_cols = _transform(lp)
    mhat, nhat = Ahat.shape

    # rows with a negative right-hand side are negated, flipping <= and >=; so
    # are >= rows with b = 0, whose slack then starts feasible, basic at 0
    is_ge = np.array([s == GE for s in senses], dtype=bool)
    row_sign = np.where((bhat < 0) | ((bhat == 0) & is_ge), -1.0, 1.0)
    b = np.abs(bhat)  # bhat * row_sign, without a -0.0
    flip = {LE: GE, GE: LE, EQ: EQ}
    eff_senses = [flip[s] if sign < 0 else s for s, sign in zip(senses, row_sign)]

    # augment with slack/surplus and artificial columns
    slack_rows = [i for i, s in enumerate(eff_senses) if s in (LE, GE)]
    art_rows = [i for i, s in enumerate(eff_senses) if s in (EQ, GE)]
    slack_cols = {i: nhat + k for k, i in enumerate(slack_rows)}
    art_cols = {i: nhat + len(slack_rows) + k for k, i in enumerate(art_rows)}
    ncols = nhat + len(slack_rows) + len(art_rows)
    Afull = np.zeros((mhat, ncols))
    np.multiply(Ahat, row_sign[:, None], out=Afull[:, :nhat])
    for i, k in slack_cols.items():
        Afull[i, k] = 1.0 if eff_senses[i] == LE else -1.0
    for i, k in art_cols.items():
        Afull[i, k] = 1.0

    basis = [art_cols.get(i, slack_cols.get(i, -1)) for i in range(mhat)]
    if any(k < 0 for k in basis):  # pragma: no cover - every row gets a column above
        raise LpNumericalError("internal: row without starting column")
    is_artificial = np.zeros(ncols, dtype=bool)
    is_artificial[nhat + len(slack_rows):] = True
    tab = _start(Afull, b, nhat, basis, is_artificial, options)

    # phase 1, unless the crash basis left no artificial basic
    if is_artificial[tab.basis].any():
        cost1 = np.zeros(ncols)
        cost1[is_artificial] = 1.0
        status = tab.run(cost1, ~is_artificial, is_artificial=is_artificial)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded below
            raise LpNumericalError("phase 1 terminated abnormally")
        phase1_value = float(cost1[tab.basis] @ tab.xB)
        if phase1_value > options.feas_tol * (1.0 + float(np.abs(b).max(initial=0.0))):
            return LpOutcome("infeasible", None, None, None, (), iterations=tab.iterations)
        _expel_artificials(tab, is_artificial, options)

    # phase 2
    cost2 = np.zeros(ncols)
    cost2[:nhat] = chat
    status = tab.run(cost2, ~is_artificial, is_artificial=is_artificial)
    if status == "unbounded":
        return LpOutcome("unbounded", None, None, None, (), iterations=tab.iterations)

    # recover original-space solution
    xhat = np.zeros(ncols)
    if tab.m:
        xhat[tab.basis] = tab.xB
    x = shift.copy()
    np.add.at(x, orig, sign * xhat[:nhat])  # in column order, as x[j] += sign * xhat
    value = float(lp.c @ x)

    y_t = (cost2[tab.basis] @ tab.Binv) if tab.m else np.zeros(0)
    y = row_sign[: lp.m] * y_t[: lp.m]
    reduced = cost2 - (y_t @ Afull if tab.m else 0.0)
    # a lower bound prices its shifted column, an upper bound alone its
    # reflected column, and a finite upper bound above a finite lower one its row
    has_lo = np.isfinite(lp.lb)[orig]
    only_hi = np.isfinite(lp.ub)[orig] & ~has_lo
    ub_rows = lp.m + np.arange(ub_cols.size)
    dual_lb = np.zeros(lp.n)
    dual_ub = np.zeros(lp.n)
    dual_lb[orig[has_lo]] = reduced[:nhat][has_lo]
    dual_ub[orig[only_hi]] = reduced[:nhat][only_hi]
    dual_ub[orig[ub_cols]] = -row_sign[ub_rows] * y_t[ub_rows]
    basic_orig = tuple(sorted(set(orig[tab.basis[tab.basis < nhat]].tolist())))
    return LpOutcome("optimal", value, x, y, basic_orig, dual_lb, dual_ub, tab.iterations)


# a crash column's entry must be at least this share of the largest structural
# entry of its row, which keeps the triangular basis away from tiny pivots
_CRASH_PIVOT_SHARE = 0.1


def _crash(A: np.ndarray, b: np.ndarray, nhat: int, start: list[int],
           is_artificial: np.ndarray) -> list[int] | None:
    """A lower-triangular basis that puts structural columns on the rows
    where `start` has an artificial, and on the slack rows those columns push
    below zero; None when there is none by this rule.

    A holds the rows normalized to b >= 0 and its first nhat columns are the
    structural ones. First, in row order, each artificial row i takes a
    column that is nonzero on it, zero on every row taken before, of the sign
    of the residual r_i (so its basic value r_i / a_ij is >= 0) and at least
    _CRASH_PIVOT_SHARE of the row's largest entry; among those the one with
    the fewest nonzeros on the artificial rows still open, the lowest index on
    ties. Then each slack row whose residual went negative takes the
    lowest-index column that is negative on it, passes the same share, and is
    zero on every artificial row and every row repaired before it. A row with
    no such column, or a slack residual still negative at the end, gives None.
    """
    S = A[:, :nhat]
    nonzero = S != 0.0
    mag = np.abs(S)
    usable = mag >= _CRASH_PIVOT_SHARE * mag.max(axis=1, initial=0.0)[:, None]
    usable &= nonzero
    positive = S > 0.0
    art = is_artificial[start]
    basis = list(start)
    r = b.copy()
    blocked = np.zeros(nhat, dtype=bool)  # nonzero on a row taken before
    open_nonzeros = np.count_nonzero(nonzero[art], axis=0)

    def take(i, j):
        r[:] -= S[:, j] * (r[i] / S[i, j])
        r[i] = 0.0
        basis[i] = j
        blocked[:] |= nonzero[i]

    for i in np.flatnonzero(art):
        cand = usable[i] & ~blocked
        if r[i] != 0.0:
            cand &= positive[i] == (r[i] > 0.0)
        idx = np.flatnonzero(cand)
        if idx.size == 0:
            return None
        take(i, int(idx[np.argmin(open_nonzeros[idx])]))
        open_nonzeros -= nonzero[i]
    # every artificial row is taken, so blocked now covers them all
    for i in np.flatnonzero(~art):
        if r[i] < 0.0:
            idx = np.flatnonzero(usable[i] & ~blocked & ~positive[i])
            if idx.size == 0:
                return None
            take(i, int(idx[0]))
    return None if (r < 0.0).any() else basis


def _start(A: np.ndarray, b: np.ndarray, nhat: int, start: list[int],
           is_artificial: np.ndarray, options: SimplexOptions) -> _Tableau:
    """The tableau on the crash basis when it refactors and is feasible,
    otherwise on the slack-and-artificial start."""
    crash = _crash(A, b, nhat, start, is_artificial)
    if crash is not None:
        try:
            tab = _Tableau(A, b, crash, options)
        except LpNumericalError:
            pass
        else:
            if tab.xB.min(initial=0.0) >= -options.feas_tol:
                return tab
    return _Tableau(A, b, start, options)


def _expel_artificials(tab: _Tableau, is_artificial: np.ndarray, opts: SimplexOptions):
    """Pivot zero-valued basic artificials out where a non-artificial column
    has a nonzero tableau entry in their row; fully dependent rows keep their
    artificial pinned at zero (it can never re-enter or regrow)."""
    for r in range(tab.m):
        if not is_artificial[tab.basis[r]]:
            continue
        row = tab.Binv[r, :] @ tab.A
        row[is_artificial] = 0.0
        in_basis = np.zeros(row.size, dtype=bool)
        in_basis[tab.basis] = True
        row[in_basis] = 0.0
        cand = np.flatnonzero(np.abs(row) > opts.pivot_tol)
        if cand.size:
            q = int(cand[0])
            d = tab.column(q)
            tab.pivot(q, r, d, 0.0)


def dual_objective(lp: LinearProgram, out: LpOutcome) -> float:
    """Dual bound implied by the reported multipliers; equals the optimal
    value at an optimal outcome (strong duality)."""
    if out.status != "optimal":
        raise LpInputError("dual_objective requires an optimal outcome")
    val = float(out.y @ lp.b) if lp.m else 0.0
    for j in range(lp.n):
        if np.isfinite(lp.lb[j]):
            val += out.dual_lb[j] * lp.lb[j]
        if np.isfinite(lp.ub[j]):
            val -= out.dual_ub[j] * lp.ub[j]
    return -val if lp.sense == MAX else val


def verify_optimality(lp: LinearProgram, out: LpOutcome) -> float:
    """Max violation across primal feasibility, dual signs, complementary
    slackness and the duality gap; <= ~1e-8 on normalized optimal data."""
    if out.status != "optimal":
        raise LpInputError("verify_optimality requires an optimal outcome")
    x, y = out.x, out.y
    viol = 0.0
    scale = 1.0 + float(np.abs(lp.b).max(initial=0.0)) + float(np.abs(x).max(initial=0.0))
    r = lp.A @ x - lp.b if lp.m else np.zeros(0)
    for i, s in enumerate(lp.senses):
        if s == LE:
            viol = max(viol, r[i] / scale)
            viol = max(viol, y[i])  # min convention: <= rows carry y <= 0
            viol = max(viol, abs(y[i] * r[i]) / scale)  # y_i (A_i x - b_i) = 0
        elif s == GE:
            viol = max(viol, -r[i] / scale)
            viol = max(viol, -y[i])
            viol = max(viol, abs(y[i] * r[i]) / scale)
        else:
            viol = max(viol, abs(r[i]) / scale)
    viol = max(viol, float(np.max(-out.dual_lb, initial=0.0)))
    viol = max(viol, float(np.max(-out.dual_ub, initial=0.0)))
    viol = max(viol, float(np.max(lp.lb - x, initial=0.0)) / scale)
    viol = max(viol, float(np.max(x - lp.ub, initial=0.0)) / scale)
    for j in range(lp.n):
        if np.isfinite(lp.lb[j]):
            viol = max(viol, abs(out.dual_lb[j] * (x[j] - lp.lb[j])) / scale)
        if np.isfinite(lp.ub[j]):
            viol = max(viol, abs(out.dual_ub[j] * (lp.ub[j] - x[j])) / scale)
    gap = abs(out.value - dual_objective(lp, out))
    viol = max(viol, gap / (1.0 + abs(out.value)))
    return viol


def check_feasible(A, senses, b, lb=None, ub=None, options: SimplexOptions = DEFAULT_OPTIONS) -> bool:
    """True iff {x : A x (senses) b, lb <= x <= ub} admits a point (phase-1 test)."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(len(tuple(senses)), -1)
    n = A.shape[1]
    lp = LinearProgram._build(MIN, np.zeros(n), A, tuple(senses), b, lb, ub)
    return solve_lp(lp, options).status == "optimal"
