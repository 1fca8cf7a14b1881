"""Show that each independent check rejects doctored outputs.

    python3 perfbench/selftest.py

Runs one untraced pass of every workload at seed 0, requires every check to
pass on the untouched outputs, then edits one value in a copy and requires
the named check to fail.  Also checks the span arithmetic on a hand-made
trace, that only a rounding-sized gap counts as the known stopping-identity
fault, and that BENCHMARK.json names exactly the workloads and metrics that
run.py reports.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import spans
from workloads import WORKLOADS, is_known_fault


def _edit_csv(path: Path, row_index: int, column: str, fn) -> None:
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    rows[row_index][column] = repr(fn(float(rows[row_index][column])))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _edit_report(path: Path, fn) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    fn(report)
    path.write_text(json.dumps(report), encoding="utf-8")


def _set_check(name: str, value: float):
    def fn(report):
        for c in report["checks"]:
            if c["name"] == name:
                c["measured"] = value
    return fn


def _fewer_paths(report):
    report["paths"] = report["paths"] // 2


def _scale_qm_block(path: Path) -> None:
    # Rows of cell 7, atom a2: one 4x4 block, scaled by 1.01.
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 1 + (7 * 3 + 1) * 16
    for i in range(start, start + 16):
        head, value = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{float(value) * 1.01!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _picard_ratio_above_bound(path: Path) -> None:
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    second = float(rows[0]["v_beta_update"]) * (checks.PICARD_RATIO_BOUND + 0.01)
    _edit_csv(path, 1, "v_beta_update", lambda v: second)


# (scenario, doctoring(out_dir), check expected to fail)
DOCTORED = [
    ("discrete_levy_qv",
     lambda d: _scale_qm_block(d / "discrete_levy_qm.csv"),
     "qm_blocks_same_in_every_time_cell"),
    ("discrete_levy_qv",
     lambda d: _scale_qm_block(d / "discrete_levy_qm.csv"),
     "qm_top_eigenvalue_is_inverse_sphere_shortfall"),
    ("discrete_levy_qv",
     lambda d: _edit_csv(d / "discrete_levy_qv.csv", 40, "mass",
                         lambda v: v * (1 + 1e-11)),
     "qv_every_time_cell_same_mass"),
    ("ito_isometry",
     lambda d: _edit_csv(d / "ito_isometry_pairs.csv", 0, "lambda2_sq",
                         lambda v: v * (1 + 1e-9)),
     "white_noise_lambda2_sq_closed_form"),
    ("ito_isometry",
     lambda d: _edit_csv(d / "ito_isometry_pairs.csv", 0, "mc_second_moment",
                         lambda v: 18.375 * (1 + 6 * (2 / 20_000) ** 0.5)),
     "white_noise_mc_within_chi2_band"),
    ("ito_isometry",
     lambda d: _edit_report(d / "ito_isometry_report.json",
                            _set_check("isometry_z[white_noise/constant]", 6.0)),
     "isometry_z[white_noise/constant]_within_calibrated_level"),
    ("heat_spde",
     lambda d: _edit_report(d / "heat_spde_report.json",
                            _set_check("convolution_moment_max_z", 7.0)),
     "convolution_moment_max_z_within_calibrated_level"),
    ("discrete_levy_qv",
     lambda d: _edit_report(d / "discrete_levy_qv_report.json",
                            _set_check("qv_rel_shortfall", 0.2)),
     "qv_rel_shortfall_within_calibrated_level"),
    ("discrete_levy_qv",
     lambda d: _edit_report(d / "discrete_levy_qv_report.json",
                            _set_check("qm_entrywise_gap", 0.25)),
     "qm_entrywise_gap_within_calibrated_level"),
    ("picard_contraction",
     lambda d: _picard_ratio_above_bound(d / "picard_trace.csv"),
     "picard_ratios_within_contraction_bound"),
    ("heat_spde",
     lambda d: _edit_csv(d / "heat_weak_residual.csv", 2, "mean_max_residual",
                         lambda v: v * 4.0),
     "weak_residual_first_order"),
    ("stopped_integral",
     lambda d: _edit_report(d / "stopped_integral_report.json",
                            _set_check("restriction_gap_over_scale", 2e-10)),
     "restriction_gap_over_scale_at_most_1e-10"),
    ("stopped_integral",
     lambda d: _edit_report(d / "stopped_integral_report.json",
                            _set_check("localization_norm_bound_excess", 1e-12)),
     "localization_norm_bound_excess_at_most_0"),
] + [(r.scenario, lambda d, r=r: _edit_report(
    d / f"{r.scenario}_report.json", _fewer_paths), "report_echoes_request")
     for w in WORKLOADS.values() for r in w.runs]


def check_spans() -> list[str]:
    trace = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, {"n": 2}],
             ["c", 5.0, 6.0, 0, None], ["d", 2.0, 3.0, 1, None],
             ["b", 11.0, 12.0, -1, {"n": 3}]]
    s = spans.summarise(trace)
    got = (s["a"]["self_s"], s["b"]["self_s"], s["b"]["calls"],
           s["b"]["attrs"]["n"], spans.top_level_seconds(trace))
    return [] if got == (6.0, 3.0, 2, 5, 11.0) else [f"span summary {got}"]


def check_known_fault() -> list[str]:
    name = "integrate.stopped_integral[shared]"
    cases = {
        "RuntimeError: stopped-integral identity violated (gap 8.882e-16)": True,
        "RuntimeError: stopped-integral identity violated (gap 1.000e-02)": False,
        "ValueError: shapes do not match": False,
        None: False,
    }
    return [f"known fault of {error!r}: {is_known_fault(name, error)}"
            for error, want in cases.items()
            if is_known_fault(name, error) != want]


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        "workloads": sorted(WORKLOADS),
        "end_to_end": sorted(run.END_TO_END),
        "per_layer": sorted(run.LAYER_UNITS),
    }
    got = {key: sorted(m["name"] for m in manifest[key]) for key in want}
    return [f"BENCHMARK.json {key}: {got[key]} != {want[key]}"
            for key in want if got[key] != want[key]]


def main() -> int:
    problems = check_spans() + check_known_fault() + check_manifest()
    work = run.ROOT / ".bench_build" / "perfbench-selftest"
    try:
        outputs = {}
        for wl in WORKLOADS.values():
            run.launch_pass(wl, 0, False, work / wl.name, 170.0)
            for r in wl.runs:
                outputs[r.scenario] = (r, work / wl.name / r.scenario)
                bad = [n for n, ok, _ in checks.check_run(r, r.seed(0),
                                                          outputs[r.scenario][1])
                       if not ok]
                if bad:
                    problems.append(f"{r.scenario}: untouched outputs fail {bad}")
        for i, (scenario, doctor, expected) in enumerate(DOCTORED):
            r, original = outputs[scenario]
            copy = work / f"doctored{i}"
            shutil.copytree(original, copy)
            doctor(copy)
            verdict = {n: ok for n, ok, _ in checks.check_run(r, r.seed(0), copy)}
            status = "rejected" if verdict.get(expected) is False else "MISSED"
            print(f"{status}: {scenario} doctored -> {expected}")
            if status == "MISSED":
                problems.append(f"{scenario}: {expected} accepted a doctored copy")
            shutil.rmtree(copy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
