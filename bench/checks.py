"""Output checks on a sweep's `results.csv`.

Every check is a property the method must have, or a comparison with a value
computed here apart from the program. None compares against a stored CSV.
A check returns `Problem`s; a problem tied to a (scheme, gamma) cell makes
that cell a failed operation.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COLUMNS = (
    "mode,scheme,gamma,replications,hrr,hrr_ci,mean_sv,mean_sv_ci,lrr,lrr_ci,"
    "usage,usage_ci,se,se_ci,mean_eps,tx_multiplicity"
)
AGNOSTIC = ("Baseline", "IRC", "RM")
REQUIRED = ("hrr", "mean_sv", "lrr", "usage", "se", "tx_multiplicity")

# Rows are printed with 6 significant digits; products of two printed values
# may disagree with the exact relation by a few parts in 1e6.
PRINT_SLACK = 1e-5
# Standard scores for the low-relevance checks. Each run makes about a
# hundred of them, so they sit far out in the tail: a false alarm would also
# turn a working cell into a failed operation.
Z_ROW, Z_MEAN = 6.0, 5.0
# Monte Carlo error of the class-model estimate (its standard error is ~2e-4).
MODEL_SLACK = 0.002


@dataclass(frozen=True)
class Problem:
    cell: tuple[str, int] | None
    message: str


def parse_csv(text: str) -> list[dict[str, str]]:
    if not text.startswith(COLUMNS + "\n"):
        raise ValueError("results.csv header differs from the documented columns")
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict[str, str], key: str) -> float | None:
    raw = row[key]
    return float(raw) if raw != "" else None


def check_grid(rows, schemes, gammas, replications, vehicles) -> list[Problem]:
    """One row per (scheme, gamma), in the documented order, nothing extra."""
    mode = "unicast" if vehicles == 2 else "broadcast"
    expected = [(s, g) for s in schemes for g in gammas]
    got = [(r["scheme"], int(r["gamma"])) for r in rows]
    problems = [Problem(c, "cell missing") for c in expected if c not in got]
    seen = set()
    for c in got:
        if c not in expected or c in seen:
            problems.append(Problem(None, f"unexpected or duplicate row {c}"))
        seen.add(c)
    if not problems and got != expected:
        problems.append(Problem(None, "rows are not sorted by scheme order, then gamma"))
    for r in rows:
        cell = (r["scheme"], int(r["gamma"]))
        if r["mode"] != mode:
            problems.append(Problem(cell, f"mode {r['mode']!r}, expected {mode!r}"))
        if r["replications"] != str(replications):
            problems.append(Problem(cell, f"replications {r['replications']}, expected {replications}"))
    return problems


def check_row(row: dict[str, str], high_max: float, s_min: float, aggregation: str) -> list[str]:
    """Range and structure properties of one row."""
    scheme, gamma = row["scheme"], int(row["gamma"])
    out = [f"{key} is empty" for key in REQUIRED if row[key] == ""]
    if out:
        return out
    hrr, lrr, usage = _num(row, "hrr"), _num(row, "lrr"), _num(row, "usage")
    se, mean_sv, mult = _num(row, "se"), _num(row, "mean_sv"), _num(row, "tx_multiplicity")
    for key, v in (("hrr", hrr), ("lrr", lrr), ("usage", usage)):
        if not 0.0 <= v <= 1.0:
            out.append(f"{key} = {v} outside [0, 1]")
    if not 0.0 <= se <= high_max:
        out.append(f"se = {se} outside [0, {high_max}]")
    # mean_sv / se is the mean message size, which the budget caps.
    if not 0.0 <= mean_sv <= gamma * se * (1 + PRINT_SLACK):
        out.append(f"mean_sv = {mean_sv} exceeds gamma * se = {gamma * se}")
    eps = _num(row, "mean_eps")
    if scheme == "Semantic":
        if eps is None or not 0.0 < eps < 1.0:
            out.append(f"mean_eps = {row['mean_eps']!r}, expected a value in (0, 1)")
    elif eps is not None:
        out.append(f"mean_eps = {eps} on a scheme that never estimates")
    if mult < 1.0:
        out.append(f"tx_multiplicity = {mult} below 1")
    if scheme == "IdealSemantic":
        if lrr != 0.0:
            out.append(f"IdealSemantic lrr = {lrr}, must be exactly 0")
        if aggregation == "max" and not se > s_min:
            out.append(f"IdealSemantic se = {se} not above s_min = {s_min}")
    return out


def _rho(d, rho_near, d_near, d_far):
    return np.where(
        d < d_near, rho_near,
        np.where(d >= d_far, 0.0, rho_near * (d_far - d) / (d_far - d_near)),
    )


@lru_cache(maxsize=8)
def low_share_interval(
    vehicles: int, width: float, height: float, delta_L: float, p: float,
    rho_near: float, d_near: float, d_far: float, det: tuple[float, float, float],
    samples: int = 10_000, seed: int = 20250807,
) -> tuple[float, float]:
    """Probability that a transmitted variable is low-relevance for every
    receiver, for a scheme whose choice does not depend on relevance.

    Class model (see the README): vehicle 0 draws its classes with
    P(low) = delta_L; each other vehicle is independent with probability p,
    and otherwise copies vehicle 0's class with probability rho(distance to
    vehicle 0) and redraws with the marginal. Given vehicle 0's class the
    other vehicles are independent, so per transmitter t the probability
    q_t is a product. It depends only on where the vehicles stand, which is
    drawn here by Monte Carlo (uniform in the scene).

    The pooled rate weights each transmitter by how many variables it sends.
    That lies between equal weights (every message full, small budgets) and
    weights proportional to the expected local-set size (large budgets), so
    the interval spans both. With two vehicles both ends equal delta_L.
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform((0.0, 0.0), (width, height), size=(samples, vehicles, 2))
    d_ref = np.hypot(*(pos[:, 1:, :] - pos[:, :1, :]).transpose(2, 0, 1))
    rho = _rho(d_ref, rho_near, d_near, d_far)
    low_if_ref_low = p * delta_L + (1 - p) * (rho + (1 - rho) * delta_L)
    low_if_ref_high = p * delta_L + (1 - p) * (1 - rho) * delta_L
    q = np.empty((samples, vehicles))
    q[:, 0] = (delta_L * low_if_ref_low.prod(axis=1)
               + (1 - delta_L) * low_if_ref_high.prod(axis=1))
    for j in range(1, vehicles):
        others = np.delete(low_if_ref_low, j - 1, axis=1)
        q[:, j] = delta_L * others.prod(axis=1)
    # Expected local-set size per vehicle, by midpoint quadrature over a
    # 20 m grid of object positions.
    gx, gy = np.meshgrid(np.arange(10.0, width, 20.0), np.arange(10.0, height, 20.0))
    gx, gy = gx.ravel(), gy.ravel()
    flat = pos.reshape(-1, 2)
    lam = np.empty(len(flat))
    a1, a2, a3 = det
    for i in range(0, len(flat), 1024):
        d = np.hypot(flat[i:i + 1024, :1] - gx, flat[i:i + 1024, 1:] - gy)
        lam[i:i + 1024] = (1.0 / (1.0 + a1 * np.exp(-a2 * (d - a3)))).mean(axis=1)
    lam = lam.reshape(samples, vehicles)
    equal = float(q.mean())
    weighted = float((q * lam).sum() / lam.sum())
    return min(equal, weighted), max(equal, weighted)


def check_agnostic_lrr(rows, params) -> list[Problem]:
    """Baseline, IRC and RM never read values, so their low-relevance rate is
    the class model's all-receivers-low probability. The tolerance comes from
    the rows' `lrr_ci`, pooled over each scheme's rows: with few replications
    one row's interval rests on too few episodes to stand alone."""
    lo, hi = low_share_interval(
        int(params["scene.vehicle_count"]), float(params["scene.width"]),
        float(params["scene.height"]), float(params["relevance.delta_L"]),
        float(params["relevance.p"]), float(params["relevance.rho_near"]),
        float(params["relevance.d_near"]), float(params["relevance.d_far"]),
        tuple(float(params[f"scene.detection_a{i}"]) for i in (1, 2, 3)),
    )
    lo, hi = lo - MODEL_SLACK, hi + MODEL_SLACK

    def off(v: float) -> float:
        return max(lo - v, v - hi, 0.0)

    problems = []
    for scheme in AGNOSTIC:
        mine = [r for r in rows if r["scheme"] == scheme and r["lrr"] != ""]
        cis = [_num(r, "lrr_ci") for r in mine]
        if not mine or None in cis:
            problems.append(Problem(None, f"{scheme}: no lrr confidence intervals to check against"))
            continue
        se = math.sqrt(sum((c / 1.96) ** 2 for c in cis) / len(cis))
        for r in mine:
            if off(_num(r, "lrr")) > Z_ROW * se:
                problems.append(Problem(
                    (scheme, int(r["gamma"])),
                    f"lrr = {r['lrr']} is more than {Z_ROW} standard errors "
                    f"({se:.4g}) from the class model [{lo:.4f}, {hi:.4f}]",
                ))
        mean = sum(_num(r, "lrr") for r in mine) / len(mine)
        if off(mean) > Z_MEAN * se / math.sqrt(len(mine)):
            problems.append(Problem(None, f"{scheme}: mean lrr {mean:.4f} is off the class model "
                                          f"[{lo:.4f}, {hi:.4f}]"))
    return problems


def check_results(text: str, params) -> list[Problem]:
    """All output checks on one sweep's CSV text, for the run parameters
    `params` (the workload's config keys)."""
    try:
        rows = parse_csv(text)
    except ValueError as e:
        return [Problem(None, str(e))]
    schemes = tuple(str(params["run.schemes"]).split(","))
    gammas = tuple(int(g) for g in str(params["run.gammas"]).split(","))
    problems = check_grid(
        rows, schemes, gammas, int(params["run.replications"]), int(params["scene.vehicle_count"]),
    )
    high_max, s_min = float(params["relevance.high_max"]), float(params["relevance.s_min"])
    for r in rows:
        for msg in check_row(r, high_max, s_min, str(params["run.sv_aggregation"])):
            problems.append(Problem((r["scheme"], int(r["gamma"])), msg))
    if int(params["run.replications"]) >= 2:
        problems += check_agnostic_lrr(rows, params)
    return problems
