"""One benchmark pass in a fresh interpreter: ``python3 child.py JOB.json``.

The job file names the operations to run.  A scenario operation is one call
of ``mvmlab.cli.main`` with ``run CONFIG --seed S --paths P --out DIR``; a
direct operation calls the API.  The pass writes RESULT.json (named in the
job) with the monotonic time at which ``import mvmlab`` had finished, the
pass wall time from the first operation to the last return, each
operation's exit code or error, the peak resident memory, the environment
and, when traced, the spans.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mvmlab  # noqa: E402
import mvmlab.cli  # noqa: E402

T_READY = time.monotonic()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402


def shared_stopped_identity() -> None:
    """``I(1_[0,sigma] Phi) = I_{. ^ sigma}`` for a shared (4-d) integrand,
    with ``check=True``.  Inputs are fixed: they do not follow ``--seed``."""
    from mvmlab import integrate, noise
    rng = np.random.default_rng(17)
    covs = [a.T @ a for a in rng.standard_normal((3, 4, 4))]
    spec = noise.DiscreteLevy((
        noise.DiscreteLevyAtom("a1", brownian_cov=covs[0]),
        noise.DiscreteLevyAtom("a2", brownian_cov=covs[1]),
        noise.DiscreteLevyAtom("a3", brownian_cov=covs[2],
                               jumps=((rng.standard_normal(4), 1.5),)),
    ))
    grid = noise.default_grid(spec, 1.0, 20)
    ens = noise.simulate(spec, grid, 2_000, 17)
    phi = integrate.GridIntegrand.constant(grid, 0.2 * rng.standard_normal((3, 4)))
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)

    def rule(past, i):
        if i == 0:
            return np.zeros(past.shape[0], dtype=bool)
        return np.abs((past @ x).sum(axis=(1, 2))) > 0.8

    sigma = integrate.grid_stopping_time(ens, rule)
    integrate.stopped_integral(phi, ens, sigma, check=True)


DIRECT = {"integrate.stopped_integral[shared]": shared_stopped_identity}


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def spin(seconds: float) -> None:
    """Keep a core busy and touch as much memory as a pass uses, so that the
    first timed pass does not pay for an idle processor and for memory the
    virtual machine has handed back (measured: +25-60% on a 2-core VM)."""
    if seconds <= 0:
        return
    block = np.ones(512 * 2**20 // 8)
    m = np.random.default_rng(0).standard_normal((200, 200)) / 20.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        block += 1.0
        m = np.tanh(m @ m)
        sum(range(20_000))


def run_op(op: dict) -> dict:
    start = time.perf_counter()
    code, error = None, None
    try:
        if op["kind"] == "cli":
            code = mvmlab.cli.main(op["argv"])
        else:
            DIRECT[op["name"]]()
            code = 0
    except Exception as exc:  # one failed operation must not end the pass
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    return {"name": op["name"], "code": code, "error": error,
            "seconds": time.perf_counter() - start}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = (ROOT / "src").resolve()
    if Path(mvmlab.__file__).resolve().parent.parent != src:
        print(f"error: mvmlab imported from {mvmlab.__file__}, not {src}",
              file=sys.stderr)
        return 1
    spin(job.get("spin_s", 0.0))
    recorder = spans.SpanRecorder() if job["trace"] else None
    if recorder is not None:
        recorder.install()
    start = time.perf_counter()
    ops = [run_op(op) for op in job["ops"]]
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": T_READY,
        "wall_s": wall,
        "ops": ops,
        "peak_rss_kib": usage.ru_maxrss,
        "env": environment(),
    }
    if recorder is not None:
        result["spans"] = recorder.spans
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
