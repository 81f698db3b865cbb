"""Paper-table rendering and the paper's reference numbers.

``PAPER_TABLE3`` / ``PAPER_TABLE4`` hold the published values verbatim
so every bench can print measured-vs-paper side by side; the render
functions lay results out in the paper's format.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..utils.tables import format_table
from .runner import ExperimentResult, PowerComparison

# Table 3, verbatim: {experiment: {strategy: (MDD, fAPV, Sharpe)}}.
PAPER_TABLE3: Dict[int, Dict[str, Tuple[float, float, float]]] = {
    1: {
        "SDP": (0.152, 5.87e7, 0.245),
        "DRL[Jiang]": (0.159, 4.41e7, 0.267),
        "ONS": (0.416, 7.74e-1, -0.008),
        "Best Stock": (0.627, 1.580, 0.014),
        "ANTICOR": (0.189, 2.422, 0.034),
        "M0": (0.362, 7.93e-1, -0.005),
        "UCRP": (0.351, 7.49e-1, -0.014),
    },
    2: {
        "SDP": (0.024, 4.371, 0.028),
        "DRL[Jiang]": (0.021, 0.977, -0.033),
        "ONS": (0.124, 0.929, -0.005),
        "Best Stock": (0.427, 3.623, 0.034),
        "ANTICOR": (0.784, 0.222, -0.086),
        "M0": (0.189, 1.240, 0.017),
        "UCRP": (0.118, 1.080, 0.009),
    },
    3: {
        "SDP": (0.253, 2.009, 0.037),
        "DRL[Jiang]": (0.249, 1.760, 0.031),
        "ONS": (0.365, 0.925, 0.001),
        "Best Stock": (0.511, 8.380, 0.036),
        "ANTICOR": (0.752, 0.251, -0.025),
        "M0": (0.271, 2.003, 0.029),
        "UCRP": (0.231, 1.840, 0.033),
    },
}

# Table 4, verbatim: {experiment: {row: (idle W, dyn W, inf/s, nJ/inf)}}.
PAPER_TABLE4: Dict[int, Dict[str, Tuple[float, float, float, float]]] = {
    1: {
        "DRL/CPU": (7.98, 24.02, 2.09, 3835.85),
        "DRL/GPU": (100.80, 29.15, 1.23, 9165.32),
        "SDP/Loihi": (1.01, 0.012, 1.04, 15.81),
    },
    2: {
        "DRL/CPU": (9.09, 22.91, 1.60, 2935.62),
        "DRL/GPU": (100.25, 29.66, 1.09, 8119.44),
        "SDP/Loihi": (1.01, 0.011, 0.82, 15.72),
    },
    3: {
        "DRL/CPU": (8.69, 23.31, 2.02, 3706.38),
        "DRL/GPU": (106.03, 24.33, 1.07, 7998.76),
        "SDP/Loihi": (1.01, 0.012, 1.01, 15.43),
    },
}


def render_table3(result: ExperimentResult, with_paper: bool = True) -> str:
    """Measured Table 3 block, optionally with the paper's values inline."""
    exp = result.config.experiment
    paper = PAPER_TABLE3.get(exp, {})
    headers = ["Strategy", "MDD", "fAPV", "Sharpe"]
    if with_paper:
        headers += ["MDD(paper)", "fAPV(paper)", "Sharpe(paper)"]
    rows: List[List[object]] = []
    for name, mdd, fapv, sharpe in result.table3_rows():
        row: List[object] = [name, mdd, fapv, sharpe]
        if with_paper:
            ref = paper.get(name)
            row += list(ref) if ref else ["-", "-", "-"]
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=f"Table 3 — Experiment {exp} ({result.config.profile} profile, "
        f"synthetic market)",
    )


def render_table4(comparison: PowerComparison, with_paper: bool = True) -> str:
    """Measured Table 4 block, optionally with the paper's values inline."""
    exp = comparison.experiment
    paper = PAPER_TABLE4.get(exp, {})
    headers = ["Algorithm", "Device", "Idle(W)", "Dyn(W)", "Inf/s", "nJ/Inf"]
    if with_paper:
        headers += ["Inf/s(paper)", "nJ/Inf(paper)"]
    key_map = {"CPU": "DRL/CPU", "GPU": "DRL/GPU", "Loihi (T=5)": "SDP/Loihi"}
    rows: List[List[object]] = []
    for label, device, idle, dyn, inf_s, nj in comparison.rows():
        row: List[object] = [label, device, idle, dyn, inf_s, nj]
        if with_paper:
            ref = paper.get(key_map.get(device, ""))
            row += [ref[2], ref[3]] if ref else ["-", "-"]
        rows.append(row)
    table = format_table(headers, rows, title=f"Table 4 — Experiment {exp}")
    table += (
        f"\nEnergy reduction: {comparison.cpu_reduction:.0f}x vs CPU, "
        f"{comparison.gpu_reduction:.0f}x vs GPU "
        f"(paper: 186x vs CPU, 516x vs GPU)"
    )
    return table


def _pm(mean: float, std: float) -> str:
    """``mean±std`` cell with the table's float conventions."""

    def one(x: float) -> str:
        if x != 0 and (abs(x) >= 1e5 or abs(x) < 1e-3):
            return f"{x:.3e}"
        return f"{x:.3f}"

    return f"{one(mean)}±{one(std)}"


#: Aggregate columns a table shows only when some row carries them:
#: implementation shortfall (execution-aware) and violation rate
#: (risk-aware).
_OPTIONAL_COLUMNS = (("shortfall", "Shortfall"), ("violation_rate", "Violation"))


def _metric_columns(rows) -> Tuple[Tuple[str, ...], List[str]]:
    """``(metrics, headers)`` of an aggregate table's mean±std columns:
    MDD, fAPV and Sharpe, then each optional column some row carries."""
    shown = [
        (m, h) for m, h in _OPTIONAL_COLUMNS if any(f"{m}_mean" in r for r in rows)
    ]
    metrics = ("mdd", "fapv", "sharpe") + tuple(m for m, _ in shown)
    return metrics, ["MDD", "fAPV", "Sharpe"] + [h for _, h in shown]


def _metric_cells(row, metrics: Tuple[str, ...]) -> List[object]:
    """``row``'s mean±std cells of ``metrics`` (``-`` where it lacks one)."""
    return [
        _pm(row[f"{m}_mean"], row[f"{m}_std"]) if f"{m}_mean" in row else "-"
        for m in metrics
    ]


def render_sweep_table(sweep, with_paper: bool = True) -> str:
    """Across-seed aggregate table for a sweep.

    ``sweep`` is a :class:`~repro.experiments.engine.SweepResult` (or
    anything with its ``aggregate()`` rows).  Each row is one grid cell
    (experiment × strategy × cost regime) with mean±std across seeds —
    the multi-seed companion to the paper's single-run Table 3 —
    optionally with the paper's point values inline.
    """
    rows_in = sweep.aggregate() if hasattr(sweep, "aggregate") else list(sweep)
    metrics, metric_headers = _metric_columns(rows_in)
    # The execution column (and its shortfall metric) only appear when
    # the sweep actually exercised that axis — all-ideal sweeps and
    # pre-execution-subsystem aggregates render exactly as before.
    exec_names = {str(row["execution"]) for row in rows_in if "execution" in row}
    with_shortfall = "shortfall" in metrics
    # Shortfall rows always name their regime, whatever it is called.
    with_exec = bool(exec_names) and (exec_names != {"ideal"} or with_shortfall)
    # Same discipline for the risk axis: the Risk/Violation columns only
    # appear when the sweep exercised it — all-none sweeps and pre-risk
    # aggregates render exactly as before.
    risk_names = {str(row["risk"]) for row in rows_in if "risk" in row}
    with_violation = "violation_rate" in metrics
    with_risk = bool(risk_names) and (risk_names != {"none"} or with_violation)
    headers = ["Exp", "Strategy", "Cost"]
    if with_exec:
        headers += ["Exec"]
    if with_risk:
        headers += ["Risk"]
    headers += ["Seeds"] + metric_headers
    if with_paper:
        headers += ["fAPV(paper)"]
    # Sweep strategies are registry keys; the paper tables use display
    # names.
    display = {"sdp": "SDP", "jiang": "DRL[Jiang]", "ons": "ONS",
               "anticor": "ANTICOR", "m0": "M0", "ucrp": "UCRP",
               "best_stock": "Best Stock"}
    rows: List[List[object]] = []
    for row in rows_in:
        cells: List[object] = [
            row["experiment"],
            row["strategy"],
            row["cost"],
        ]
        if with_exec:
            cells.append(row.get("execution", "-"))
        if with_risk:
            cells.append(row.get("risk", "-"))
        cells += [row["seeds"]] + _metric_cells(row, metrics)
        if with_paper:
            ref = PAPER_TABLE3.get(row["experiment"], {}).get(
                display.get(str(row["strategy"]), str(row["strategy"]))
            )
            cells.append(ref[1] if ref else "-")
        rows.append(cells)
    return format_table(
        headers, rows, title="Sweep aggregates (mean±std across seeds)"
    )


def render_walkforward_table(report) -> str:
    """Per-fold aggregate table for a walk-forward report."""
    rows_in = report.fold_aggregates()
    metrics, metric_headers = _metric_columns(rows_in)
    headers = ["Fold", "Test window", "Strategy", "Seeds"] + metric_headers
    rows = [
        [row["fold"], f"{row['test_start']}–{row['test_end']}", row["strategy"],
         row["seeds"]] + _metric_cells(row, metrics)
        for row in rows_in
    ]
    return format_table(
        headers, rows, title="Walk-forward evaluation (mean±std across seeds)"
    )


def render_regime_table(report) -> str:
    """Per-regime attribution table for a walk-forward report."""
    rows_in = report.regime_aggregates()
    metrics, metric_headers = _metric_columns(rows_in)
    headers = ["Regime", "Strategy", "Periods", "Seeds"] + metric_headers
    rows = [
        [row["regime"], row["strategy"], row["periods"], row["seeds"]]
        + _metric_cells(row, metrics)
        for row in rows_in
    ]
    return format_table(
        headers, rows, title="Per-regime attribution (mean±std across seeds)"
    )


def summarize_shape_check(result: ExperimentResult) -> List[str]:
    """Qualitative shape assertions of the paper for one experiment.

    Returns human-readable pass/fail lines; benches print these so the
    paper-vs-measured comparison is explicit.
    """
    b = result.backtests
    lines = []

    def check(label: str, ok: bool) -> None:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}")

    if "SDP" in b and "DRL[Jiang]" in b:
        check("SDP fAPV >= DRL[Jiang] fAPV", b["SDP"].fapv >= b["DRL[Jiang]"].fapv)
    classical = [n for n in ("ONS", "ANTICOR", "M0", "UCRP") if n in b]
    if "SDP" in b and classical:
        best_classical = max(b[n].fapv for n in classical)
        check("SDP fAPV beats on-line classical strategies",
              b["SDP"].fapv >= best_classical)
    return lines
