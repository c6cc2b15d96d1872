"""Output checks that do not rely on the code under test.

Each checker returns a list of problems; an empty list means the output
passed.  The expected headers, the verify counts and the spectral
oracle are written out here rather than imported from the program, so a
change to the program cannot silently change what counts as correct.
"""
from __future__ import annotations

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

SWEEP_HEADER = (
    "a,s,tau_12,tau_23,tau_14,tau_pairblock,tau_1_rest,tau_res,tau_tri_bound,"
    "monogamy_ok,strong_monogamy_ok"
)
REPORT_FIELDS = (
    "a", "s", "tau_12", "tau_13", "tau_14", "tau_23", "tau_24", "tau_34",
    "tau_1_rest", "tau_2_rest", "tau_3_rest", "tau_4_rest", "tau_pairblock",
    "tau_res", "tau_tri_bound", "monogamy_ok", "strong_monogamy_ok",
    "near_threshold", "consistent", "max_route_deviation",
)
QUDIT_FIELDS = (
    "d", "three_tangle", "three_tangle_exact", "pairwise_tangle",
    "pairwise_tangle_exact", "one_vs_rest_tangle", "one_vs_rest_tangle_exact",
    "monogamy_gap", "monogamy_gap_exact", "nongaussianity", "squashed_one_vs_rest",
    "squashed_tripartite_lower", "squashed_tripartite_lower_exact",
    "squashed_pairwise_form", "squashed_pairwise_witness",
)
# suite check counts of `verify` on the default 26x26 grid at the seed commit
VERIFY_COUNTS = {
    "gaussian_invariants": 45,
    "one_vs_rest_agreement": 2704,
    "interpair_agreement": 676,
    "pair_separability": 4080,
    "monogamy": 1352,
    "strong_monogamy": 2029,
    "bounding_state": 625,
    "shape": 1327,
    "inseparability": 9,
    "report_consistency": 18,
    "qudit_tangles": 43,
    "nongaussianity": 73,
    "squashed": 30,
}
VERIFY_TOTAL = sum(VERIFY_COUNTS.values())

# tolerance between two printed values that are equal in exact arithmetic
PRINT_TOL = 1e-9
# float64 error allowed to the program's closed forms against the oracle
FLOAT_SLACK = 1e-13
ORACLE_SAMPLE = 16
ORACLE_DIGITS = 50


def close(x: float, y: float, tol: float = PRINT_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def rounds_to(printed: str, exact: float) -> bool:
    """True if `printed` is `exact` rounded to 12 significant digits.

    Allows half a unit in the 12th digit plus FLOAT_SLACK, so a change of
    one unit in the last printed digit is caught.
    """
    x = float(printed)
    if x == 0.0:
        return abs(exact) <= 1e-15
    unit = 10.0 ** (math.floor(math.log10(abs(x))) - 11)
    return abs(x - exact) <= 0.5 * unit + FLOAT_SLACK * abs(exact) + 1e-15


def grid_axis(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


# -- spectral oracle ---------------------------------------------------------


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))] for i in range(len(x))]


def _squeezer(i: int, j: int, r: Decimal, n: int = 4):
    """Two-mode squeezer on modes i, j of n modes, qqpp ordering."""
    ch = (r.exp() + (-r).exp()) / 2
    sh = (r.exp() - (-r).exp()) / 2
    mat = [[Decimal(int(row == col)) for col in range(2 * n)] for row in range(2 * n)]
    for x, y, sign in ((i, j, 1), (n + i, n + j, -1)):
        mat[x][x] = mat[y][y] = ch
        mat[x][y] = mat[y][x] = sign * sh
    return mat


def _det(mat) -> Decimal:
    m = [row[:] for row in mat]
    total = Decimal(1)
    for col in range(len(m)):
        pivot = max(range(col, len(m)), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            return Decimal(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            total = -total
        total *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            for c in range(col, len(m)):
                m[r][c] -= factor * m[col][c]
    return total


def _arccosh(nu: Decimal) -> Decimal:
    nu = max(nu, Decimal(1))
    return (nu + (nu * nu - 1).sqrt()).ln()


def oracle_contangles(a: float, s: float) -> tuple[float, float]:
    """(tau_1_rest, tau_pairblock) of gamma(a, s) at 50 digits.

    Builds S = S_34(a) S_12(a) S_23(s), sigma = S S^T, and squares the
    log-negativity of the pure state across 1|234 and 12|34, taken as
    the sum of arccosh of the reduced state's symplectic eigenvalues.
    """
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        da, ds = Decimal(a), Decimal(s)
        big_s = _matmul(_matmul(_squeezer(2, 3, da), _squeezer(0, 1, da)), _squeezer(1, 2, ds))
        sigma = _matmul(big_s, [list(row) for row in zip(*big_s)])

        def block(m: int, k: int):
            return [[sigma[m][k], sigma[m][4 + k]], [sigma[4 + m][k], sigma[4 + m][4 + k]]]

        def det2(b):
            return b[0][0] * b[1][1] - b[0][1] * b[1][0]

        one_rest = _arccosh(det2(block(0, 0)).sqrt())
        delta = det2(block(0, 0)) + det2(block(1, 1)) + 2 * det2(block(0, 1))
        idx = (0, 1, 4, 5)
        det_pair = _det([[sigma[r][c] for c in idx] for r in idx])
        root = max(delta * delta - 4 * det_pair, Decimal(0)).sqrt()
        nu_plus = ((delta + root) / 2).sqrt()
        nu_minus = (det_pair.sqrt() / nu_plus) if nu_plus > 0 else Decimal(1)
        pairblock = _arccosh(nu_plus) + _arccosh(nu_minus)
        return float(one_rest * one_rest), float(pairblock * pairblock)


# -- sweep_dense ---------------------------------------------------------------


def parse_config(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        values[key] = float(value)
    return values


def check_sweep(csv_text: str, config_text: str, steps: int, sample_seed: int) -> list[str]:
    """Header, grid coordinates, flags, 4s^2 on every row, oracle on a sample."""
    cfg = parse_config(config_text)
    a_axis = grid_axis(0.0, cfg["a_max"], steps)
    s_axis = grid_axis(0.0, cfg["s_max"], steps)
    lines = csv_text.split("\n")
    if lines[-1] != "":
        return ["sweep output does not end with a newline"]
    lines.pop()
    if lines[0] != SWEEP_HEADER:
        return [f"sweep header is {lines[0]!r}"]
    rows = lines[1:]
    if len(rows) != steps * steps:
        return [f"sweep has {len(rows)} rows, expected {steps * steps}"]
    problems = []
    for k, line in enumerate(rows):
        fields = line.split(",")
        a, s = a_axis[k // steps], s_axis[k % steps]
        if (
            len(fields) != 11
            or fields[0] != f"{a:.12g}"
            or fields[1] != f"{s:.12g}"
            or fields[9] != "true"
            or fields[10] != "true"
            or not rounds_to(fields[5], 4.0 * s * s)
        ):
            problems.append(f"sweep row {k}: {line}")
            if len(problems) >= 5:
                return problems
    rng = random.Random(f"oracle:{sample_seed}")
    sample = sorted(set(rng.sample(range(len(rows)), ORACLE_SAMPLE)) | {len(rows) - 1})
    for k in sample:
        fields = rows[k].split(",")
        one_rest, pairblock = oracle_contangles(a_axis[k // steps], s_axis[k % steps])
        if not (rounds_to(fields[6], one_rest) and rounds_to(fields[5], pairblock)):
            problems.append(
                f"sweep row {k} disagrees with the 50-digit oracle: "
                f"tau_1_rest {fields[6]} vs {one_rest!r}, tau_pairblock {fields[5]} vs {pairblock!r}"
            )
    return problems


# -- verify_battery --------------------------------------------------------------


def check_verify(rc: int, stdout: str) -> list[str]:
    """Exit 0, every suite's count equal to the seed commit's, full total."""
    problems = [] if rc == 0 else [f"verify exited {rc}"]
    lines = stdout.splitlines()
    expected = [f"{name}: {n}/{n} ok" for name, n in VERIFY_COUNTS.items()]
    expected.append(f"total: {VERIFY_TOTAL}/{VERIFY_TOTAL} checks passed")
    if lines != expected:
        problems.append(f"verify output differs from the expected battery: {lines}")
    return problems


# -- point_reports -----------------------------------------------------------------


def parse_table(text: str, fields: tuple[str, ...], fmt: str) -> dict:
    """Rows of `report --format json|csv` as a dict of strings and bools."""
    if fmt == "json":
        payload = json.loads(text)
        if tuple(payload) != fields:
            raise ValueError(f"json keys {tuple(payload)}")
        return {k: v if isinstance(v, (bool, str)) else repr(v) for k, v in payload.items()}
    header, values, tail = text.split("\n")
    if header != ",".join(fields) or tail != "":
        raise ValueError(f"csv header {header!r}")
    cells = values.split(",")
    if len(cells) != len(fields):
        raise ValueError(f"csv row has {len(cells)} cells")
    flags = {"true": True, "false": False}
    return {k: flags.get(v, v) for k, v in zip(fields, cells)}


def check_fourmode_report(argv: list[str], rc: int, stdout: str) -> list[str]:
    a, s, fmt = float(argv[3]), float(argv[5]), argv[7]
    if rc != 0:
        return [f"exit {rc}"]
    try:
        row = parse_table(stdout, REPORT_FIELDS, fmt)
        num = {k: float(v) for k, v in row.items() if not isinstance(v, bool)}
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    problems = []
    if row["consistent"] is not True:
        problems.append("consistent is not true")
    if not (rounds_to(row["a"], a) and rounds_to(row["s"], s)):
        problems.append(f"echoed point ({num['a']}, {num['s']})")
    if not rounds_to(row["tau_pairblock"], 4.0 * s * s):
        problems.append(f"tau_pairblock {num['tau_pairblock']} != 4s^2")
    for left, right in (
        ("tau_1_rest", "tau_4_rest"), ("tau_2_rest", "tau_3_rest"),
        ("tau_12", "tau_34"), ("tau_13", "tau_24"),
    ):
        if not close(num[left], num[right]):
            problems.append(f"1<->4 symmetry: {left} {num[left]} vs {right} {num[right]}")
    return problems


def check_qudit_report(argv: list[str], rc: int, stdout: str) -> list[str]:
    d, fmt = int(argv[3]), argv[5]
    if rc != 0:
        return [f"exit {rc}"]
    try:
        row = parse_table(stdout, QUDIT_FIELDS, fmt)
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    expected = {
        "three_tangle": Fraction(d, 4),
        "pairwise_tangle": Fraction(d, 9),
        "one_vs_rest_tangle": Fraction(17 * d, 36),
        "monogamy_gap": Fraction(0),
        "squashed_tripartite_lower": Fraction(d, 4),
    }
    problems = [] if row["d"] == str(d) else [f"echoed d {row['d']}"]
    for name, value in expected.items():
        if row[f"{name}_exact"] != str(value) or not close(float(row[name]), float(value)):
            problems.append(f"{name} = {row[f'{name}_exact']} ({row[name]}), expected {value}")
    return problems


def check_request(argv: list[str], rc: int, stdout: str) -> list[str]:
    if argv[0] == "fourmode":
        return check_fourmode_report(argv, rc, stdout)
    return check_qudit_report(argv, rc, stdout)
