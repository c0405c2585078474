"""Output checks for the benchmark, computed apart from ghzdet.

Stdlib only: nothing here imports ghzdet or numpy, so a fault in the program
cannot hide in the reference it is compared against.  Every checker returns a
list of problems, each a ``(field, message)`` pair; an empty list means the
output is correct.

The references:

* LHV feasibility from the Hadamard structure of the eight atoms.  The moment
  vectors (a, b, c, abc) of abc, ab'c, abc', ab'c' are the orthogonal rows
  h_i of a 4x4 Hadamard matrix and the other four atoms are their negatives,
  so a tetrad x is reproducible by a joint distribution iff
  sum_i |x . h_i| <= 4.  The sums are exact for the dyadic tetrads the
  workloads use on a bound.
* The paper's closed forms for the corrected correlation,
  E = 1 / (1 + 6 ratio gamma^2 / d^2), sigma = sqrt(1 - E^2) and the
  separation (E - 1/2) / sigma.
* A fourfold model built from per-detector firing probabilities: gamma with
  no photon, d + (1-d) gamma with one, d (1-d) + (1-d)^2 gamma with two.  A
  single pair is a fourfold if any of its ten arrival channels is (the exact
  union 1 - prod(1 - q_i)); a double pair puts one photon on each detector,
  (d + gamma (1-d))^4.
"""

from __future__ import annotations

import math
from typing import Optional

Problem = tuple[str, str]

# Moment vectors (a, b, c, abc) of the eight atoms, in the order the program
# prints its witness: abc, ab'c, abc', ab'c', a'bc, a'b'c, a'bc', a'b'c'.
ATOMS = tuple(
    (a, b, c, a * b * c)
    for a, b, c in (
        (1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1),
        (-1, 1, 1), (-1, -1, 1), (-1, 1, -1), (-1, -1, -1),
    )
)
HADAMARD_ROWS = ATOMS[:4]

WITNESS_TOL = 1e-9
CORRELATION_RTOL = 1e-12
SWEEP_E_TOL = 1e-9
SWEEP_RTOL = 1e-6
CONTOUR_GAMMA_TOL = 1e-12
# Statistical bound on every Monte Carlo comparison.  The workloads use fixed
# simulation seeds, so each comparison gives the same z on every run.
Z_BOUND = 5.0
# Fields in which the additive pair aggregate shows at dense points.
FAULT_FIELDS = frozenset({"analytic_p4", "analytic_e", "flagged"})


# --- LHV feasibility ---------------------------------------------------------

def lhv_feasible(tetrad) -> bool:
    """Is the tetrad (E_A, E_B, E_C, E_ABC) inside the cross-polytope?"""
    return sum(abs(sum(x * h for x, h in zip(tetrad, row))) for row in HADAMARD_ROWS) <= 4.0


def witness_problems(tetrad, witness) -> list[Problem]:
    """A witness is a probability vector over the atoms that reproduces the tetrad."""
    if not isinstance(witness, list) or len(witness) != 8:
        return [("witness", f"expected 8 atom probabilities, got {witness!r}")]
    if min(witness) < 0.0:
        return [("witness", f"negative atom probability in {witness}")]
    if abs(math.fsum(witness) - 1.0) > WITNESS_TOL:
        return [("witness", f"atom probabilities sum to {math.fsum(witness)}")]
    for k in range(4):
        moment = math.fsum(p * atom[k] for p, atom in zip(witness, ATOMS))
        if abs(moment - tetrad[k]) > WITNESS_TOL:
            return [("witness", f"moment {k} is {moment}, tetrad has {tetrad[k]}")]
    return []


def check_check(tetrad, exit_code: int, payload: dict) -> list[Problem]:
    """`ghzdet check --json`: decision, exit code, F, slacks and witness."""
    feasible = lhv_feasible(tetrad)
    problems = []
    if exit_code != (0 if feasible else 1):
        problems.append(("exit_code", f"{exit_code} for a tetrad with feasible={feasible}"))
    if payload.get("feasible") is not feasible:
        problems.append(("feasible", f"{payload.get('feasible')} for {tetrad}"))
    f_value = tetrad[0] + tetrad[1] + tetrad[2] - tetrad[3]
    if not math.isclose(payload.get("f_value", math.nan), f_value, abs_tol=1e-12):
        problems.append(("f_value", f"{payload.get('f_value')} != {f_value}"))
    slacks = payload.get("slacks") or []
    if len(slacks) != 8 or (min(slacks) >= 0.0) is not feasible:
        problems.append(("slacks", f"{slacks} disagree with feasible={feasible}"))
    witness = payload.get("witness")
    if feasible:
        problems += witness_problems(tetrad, witness)
    elif witness is not None:
        problems.append(("witness", "witness given for an infeasible tetrad"))
    return problems


def check_lhv_batch(tetrads, payload: dict) -> list[Problem]:
    """The library script's per-tetrad decisions, witnesses and batch masks."""
    decisions = payload.get("decisions") or []
    if len(decisions) != len(tetrads):
        return [("decisions", f"{len(decisions)} decisions for {len(tetrads)} tetrads")]
    expected = "".join("1" if lhv_feasible(t) else "0" for t in tetrads)
    problems = []
    for key in ("mask_oracle", "mask_inequalities"):
        if payload.get(key) != expected:
            problems.append((key, "batch decision differs from the Hadamard test"))
    for tetrad, want, (feasible, witness) in zip(tetrads, expected, decisions):
        if feasible is not (want == "1"):
            problems.append(("feasible", f"{feasible} for {tetrad}"))
        elif feasible:
            problems += witness_problems(tetrad, witness)
        elif witness is not None:
            problems.append(("witness", f"witness given for infeasible {tetrad}"))
        if problems:
            break
    return problems


# --- corrected correlation ---------------------------------------------------

def approx_correlation(d: float, gamma: float, ratio: float) -> float:
    return 1.0 / (1.0 + 6.0 * ratio * gamma**2 / d**2)


def sigma_and_separation(e: float) -> tuple[float, float]:
    sigma = math.sqrt(max(0.0, 1.0 - e * e))
    if e <= 0.5:
        return sigma, math.nan
    return sigma, (math.inf if sigma == 0.0 else (e - 0.5) / sigma)


def same(got, want: float, rtol: float, atol: float = 0.0) -> bool:
    """`got` is a number within tolerance of `want`; nan and inf must match exactly."""
    if not isinstance(got, (int, float)):
        return False
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(want) and math.isnan(got))
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


def check_correlation(e_want: float, exit_code: int, payload: dict) -> list[Problem]:
    """`ghzdet correlation --json` against the closed forms."""
    if exit_code != 0:
        return [("exit_code", str(exit_code))]
    sigma, separation = sigma_and_separation(e_want)
    problems = []
    for key, want in (("e", e_want), ("sigma", sigma), ("separation", separation)):
        if not same(payload.get(key), want, CORRELATION_RTOL):
            problems.append((key, f"{payload.get(key)} != {want}"))
    return problems


def sweep_grid(spec: dict) -> tuple[list[float], list[float]]:
    """The sweep's gamma axis (log-spaced) and d axis (linear)."""
    n_g, n_d = spec["gamma_steps"], spec["d_steps"]
    g0, g1, d0, d1 = spec["gamma_min"], spec["gamma_max"], spec["d_min"], spec["d_max"]
    gammas = [g0 * (g1 / g0) ** (i / (n_g - 1)) for i in range(n_g)]
    ds = [d0 + (d1 - d0) * j / (n_d - 1) for j in range(n_d)]
    return gammas, ds


def check_sweep(spec: dict, exit_code: int, text: str) -> list[Problem]:
    """`ghzdet sweep` CSV: every row recomputed, contour rows on the level."""
    if exit_code != 0:
        return [("exit_code", str(exit_code))]
    gammas, ds = sweep_grid(spec)
    n_g, n_d, ratio = len(gammas), len(ds), spec["ratio"]
    lines = text.splitlines()
    if not lines or lines[0] != "gamma,d,E,sigma,separation":
        return [("header", repr(lines[:1]))]
    rows = lines[1 : 1 + n_g * n_d]
    if len(rows) != n_g * n_d:
        return [("rows", f"{len(rows)} rows for a {n_g}x{n_d} grid")]
    p_pair, p_twopair = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)

    def model(d: float, gamma: float) -> float:
        if spec["mode"] == "approx":
            return approx_correlation(d, gamma, ratio)
        return fourfold_model(d, gamma, p_pair, p_twopair)[1]

    close = math.isclose
    for k, row in enumerate(rows):
        gamma, d, e, sigma, sep = map(float, row.split(","))
        if not (close(gamma, gammas[k // n_d], rel_tol=1e-9) and close(d, ds[k % n_d], rel_tol=1e-9)):
            return [("grid", f"row {k}: ({gamma}, {d})")]
        e_want = model(d, gamma)
        sigma_want, sep_want = sigma_and_separation(e)
        if not (
            abs(e - e_want) <= SWEEP_E_TOL
            and close(sigma, sigma_want, rel_tol=SWEEP_RTOL, abs_tol=1e-12)
            and (close(sep, sep_want, rel_tol=SWEEP_RTOL) if e > 0.5 else math.isnan(sep))
        ):
            return [("row", f"row {k}: {row!r}, model E={e_want}")]
    contour = spec.get("contour")
    tail = lines[1 + n_g * n_d :]
    if contour is None:
        return [] if not tail else [("contour", f"{len(tail)} unexpected lines")]
    if tail[:2] != [f"# contour E={contour:.12g}", "d,gamma"] or len(tail) != 2 + n_d:
        return [("contour", f"contour block {tail[:2]} with {len(tail) - 2} rows")]
    for j, row in enumerate(tail[2:]):
        d, gamma = (float(v) for v in row.split(","))
        if not same(d, ds[j], 1e-9) or not contour_gamma_ok(d, ratio, contour, gamma):
            return [("contour", f"row {row!r}: gamma should be {contour_gamma(d, ratio, contour)}")]
    return []


def contour_gamma(d: float, ratio: float, level: float) -> float:
    """gamma at which the approx correlation equals `level`, in closed form."""
    return d * math.sqrt((1.0 / level - 1.0) / (6.0 * ratio))


def contour_gamma_ok(d: float, ratio: float, level: float, gamma: float) -> bool:
    """Within the documented bisection tolerance, 1e-12 absolute in gamma.

    That is up to ~2e-7 in E on the sweep's grid (d = 0.3), not 1e-7.
    """
    return abs(gamma - contour_gamma(d, ratio, level)) <= CONTOUR_GAMMA_TOL + 1e-11 * gamma


# --- Monte Carlo -------------------------------------------------------------

def fourfold_model(
    d: float, gamma: float, p_pair: float, p_twopair: float
) -> tuple[float, Optional[float]]:
    """(P(fourfold), E(product | fourfold)) per coincidence window."""
    fire = (gamma, d + (1.0 - d) * gamma, d * (1.0 - d) + (1.0 - d) ** 2 * gamma)
    q_distinct = fire[1] ** 2 * fire[0] ** 2  # six channels: TD1 ... D2D3
    q_same = fire[2] * fire[0] ** 3  # four channels: D1D1, D2D2, D3D3, TT
    p_single = -math.expm1(6.0 * math.log1p(-q_distinct) + 4.0 * math.log1p(-q_same)) \
        if max(q_distinct, q_same) < 1.0 else 1.0
    p4 = p_pair * p_single + p_twopair * fire[1] ** 4
    # Correlated quadruples: three signal photons detected, trigger fired.
    signal = p_twopair * d**3 * fire[1]
    return p4, (signal / p4 if p4 > 0.0 and signal > 0.0 else None)


def check_simulate(cfg: dict, exit_code: int, payload: dict) -> list[Problem]:
    """`ghzdet simulate --json`: sample and analytic values against the model."""
    if exit_code != 0:
        return [("exit_code", str(exit_code))]
    n = cfg["trials"]
    p4, e = fourfold_model(cfg["d"], cfg["gamma"], cfg["pair"], 1.0 - cfg["pair"])
    n4 = payload.get("n_fourfold")
    problems = []
    if payload.get("n_trials") != n:
        problems.append(("n_trials", f"{payload.get('n_trials')} != {n}"))
    if not isinstance(n4, int) or payload.get("p4_hat") != n4 / n:
        problems.append(("p4_hat", f"{payload.get('p4_hat')} is not {n4}/{n}"))
        return problems
    se_p4 = math.sqrt(p4 * (1.0 - p4) / n)
    se_e = math.sqrt(max(0.0, 1.0 - e * e) / max(1.0, n * p4))
    for key, want, se in (
        ("p4_hat", p4, se_p4),
        ("analytic_p4", p4, se_p4),
        ("e_hat", e, se_e),
        ("analytic_e", e, se_e),
    ):
        got = payload.get(key)
        if not isinstance(got, (int, float)):
            problems.append((key, f"missing ({got!r})"))
        elif abs(got - want) > Z_BOUND * se:
            problems.append((key, f"{got} vs model {want}: z={(got - want) / se:+.1f}"))
    if payload.get("flagged") is not False:
        problems.append(("flagged", f"flagged={payload.get('flagged')}"))
    return problems


def check_events(exit_code: int, payload: dict, log: str) -> list[Problem]:
    """`simulate --events`: log lines carrying a product match the counts.

    Counts only lines whose last field is a +1/-1 product, so the check holds
    for a log of every window and for one of fourfolds only, with or without a
    header.
    """
    if exit_code != 0:
        return [("exit_code", str(exit_code))]
    n_product = n_ghz = 0
    for line in log.splitlines():
        fields = line.split(",")
        if fields[-1] in ("+1", "-1"):
            n_product += 1
            n_ghz += "ghz" in fields
    problems = []
    if n_product != payload.get("n_fourfold"):
        problems.append(("n_fourfold", f"{n_product} product lines, n_fourfold={payload.get('n_fourfold')}"))
    if n_ghz != payload.get("n_ghz_fourfold"):
        problems.append(("n_ghz_fourfold", f"{n_ghz} ghz lines, n_ghz_fourfold={payload.get('n_ghz_fourfold')}"))
    return problems
