"""Print one SHA-256 per output of the standard corpus of a locact tree.

    python tools/output_digests.py [TREE]

TREE is a checkout with ``src/locact``, ``bench/workloads.py`` and
``demos/``; it defaults to the checkout this script sits in.  Each line is
``<digest> <output name>``.  The corpus:

- the stdout of every demo;
- the exit code, stdout and sweep CSV of fixed ``fhn`` argvs, and the exit
  code and stdout of an inline sweep and of two single points whose
  evidence holds a right-half-plane pole and a negative axis residue;
- every request of the ``cli-reports`` stream of seeds 1-3: exit code,
  stdout and CSV, with the work directory replaced by ``<workdir>``;
- the exit code and stdout of ``rd-cell`` on fixed specs (FitzHugh-Nagumo
  and linear kinetics on the 3 x 3 grid, each boundary, with and without
  ``guesses``, and FitzHugh-Nagumo kinetics on the 1 x 1 and 2 x 2 grids,
  whose toroidal neighbours coincide, for each boundary), of
  ``analyze`` on the first ``identity-ports`` matrices of seed 0 with
  ``P = I``, ``e1 e1^T`` and an oblique ``P``, of ``analyze`` on one input
  per route of the activity decision (each witness route, the certificates,
  the ``sym(A)`` one under an orthogonal and under an oblique ``P``, and
  Inconclusive) and on a real eigenpair that sorts between the members
  of a complex pair, of ``analyze`` on one input whose two-pulse scan finds
  no negative energy over several blocks of horizons, and of
  ``genericity --n 1..4``;
- the verdict JSON (``to_json``) of every request of the ``identity-ports`` and
  ``generic-ports`` streams of seeds 0-5.

The inputs come from the generators of ``bench/workloads.py``, with the
request counts of a 20-second run.  Two trees print the same lines exactly
when every output is byte-identical:

    diff <(python tools/output_digests.py OLD) <(python tools/output_digests.py NEW)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SECONDS = 20
SWEEPS = [
    ("--mu", "0.05", "--sweep", "0:0.1:401"),
    ("--mu", "0.7", "--sweep=-0.5:1.5:81"),
    ("--mu", "-0.1", "--beta", "0.7", "--sweep=-2:3:201"),
    *(("--mu", mu, "--sweep", "0:0.1:401")
      for mu in ("0", "0.02", "0.045", "0.0501", "0.055", "0.08", "0.1")),
    ("--beta", "1e308", "--xi", "10", "--sweep", "0:0.1:401"),
    ("--xi", "0", "--sweep", "0:0.1:401"),
    ("--tol.cluster_tol=1e-3", "--sweep", "0:0.1:401"),
    # the rational of the first point overflows: the points are classified alone
    ("--beta", "1e308", "--xi", "1", "--sweep", "0:0.1:21"),
]
INLINE_SWEEP = ("--mu", "0.03", "--sweep", "0:0.1:41")  # rows in stdout, no CSV
# single points whose edge-of-chaos evidence holds a complex number: the
# right-half-plane pole of condition (i), and the negative axis residue of
# condition (iii)
POINTS = [("--beta", "-1"), ("--beta", "0", "--xi", "-0.1")]
RD_KINETICS = [  # (m, n, D, kinetics, guesses)
    (1, 2, [0.0125], {"type": "fhn"}, [[-1.0, -0.6], [0.0, 0.0], [1.5, 0.5]]),
    (1, 2, [0.05], {"type": "fhn", "mu": 0.0, "beta": 0.7, "xi": 0.08}, [[1.0, 1.0]]),
    (1, 2, [0.0125], {"type": "linear", "A": [[0.5, -1.0], [1.0, -0.8]]}, [[0.0, 0.0]]),
    (2, 2, [0.1, 0.3], {"type": "linear", "A": [[0.2, 1.0], [-1.0, 0.1]]}, [[1.0, -1.0]]),
    (1, 3, [0.2], {"type": "linear", "A": [[0.3, 1.0, 0.0], [-1.0, -0.5, 0.4],
                                           [0.0, -0.4, -1.0]]}, [[0.0, 0.0, 0.0]]),
]
BOUNDARIES = ("dirichlet", "neumann", "toroidal")
SMALL_GRIDS = (1, 2)  # FitzHugh-Nagumo kinetics only
ANALYZE_MATRICES = 12  # the first identity-ports requests of seed 0
E1E1 = [[1.0, 0.0], [0.0, 0.0]]
NEAR_REAL = [[0.5, 0.01], [-0.01, 0.5]]  # its complex pair is skipped
ROUTE_INPUTS = [  # (name, A, P) for analyze, one per route of classify_activity
    ("real-eigenpair", [[1.0, 0.0], [0.0, -1.0]], E1E1),
    # the real eigenvalue 0.5 sorts between the members of 0.5 +/- 1e-16i
    ("real-eigenpair-beside-near-real-pair",
     [[0.5, 1e-16, 0.0], [-1e-16, 0.5, 0.0], [0.0, 0.0, 0.5]],
     [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ("complex-pair", [[1.0, 3.0], [-3.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    ("trajectory-bump", NEAR_REAL, [[1.0, 0.0], [0.0, 1.0]]),
    ("trajectory-bump-retry", [[1e-14]], [[1.0]]),
    ("two-pulse", NEAR_REAL, E1E1),
    ("sym-PAP-bump", [[1e-10, 0.0], [0.0, -1.0]], E1E1),
    ("band-certificate", [[0.0, 1e-9], [-1e-9, 0.0]], E1E1),
    # sym(PA) is indefinite under the orthogonal e1 e1^T, sym(A) = -I
    ("sym-A-certificate-orthogonal", [[-1.0, 1.0], [-1.0, -1.0]], E1E1),
    ("sym-A-certificate-oblique", [[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.7], [0.0, 0.0]]),
    ("inconclusive-oblique", [[-1.0, 10.0], [0.0, -2.0]], [[1.0, 1.0], [0.0, 0.0]]),
]
# (name, A, P, options): no negative closed-form energy on 1,001 horizons
SCAN_EXHAUSTED = ("two-pulse-scan-exhausted", [[0.1, 1.0], [-1.0, 0.1]], E1E1,
                  ("--tol.T_max=3", "--tol.T_scan_step=0.001"))


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def demo_outputs(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for demo in sorted((tree / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                                  capture_output=True, timeout=600)
        yield f"demo/{demo.stem}", digest(proc.returncode, proc.stdout)


def cli_run(cli, argv, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().replace(str(workdir), "<workdir>")


def sweep_outputs(cli, workdir):
    csv_path = workdir / "sweep.csv"
    for argv in SWEEPS:
        code, stdout = cli_run(cli, ("fhn", *argv, "--sweep-csv", str(csv_path)), workdir)
        csv = csv_path.read_bytes() if csv_path.exists() else b""
        csv_path.unlink(missing_ok=True)
        yield "fhn " + " ".join(argv), digest(code, stdout, csv)
    for argv in (INLINE_SWEEP, *POINTS):
        yield "fhn " + " ".join(argv), digest(*cli_run(cli, ("fhn", *argv), workdir))


def cli_report_outputs(cli, workloads, workdir):
    kind = workloads.WORKLOADS["cli-reports"]
    for seed in (1, 2, 3):
        load = kind(seed, workdir, kind.requests(SECONDS))
        load.prepare()
        for k in range(load.count):
            _, argv, _ = load.request(k)
            code, stdout = cli_run(cli, argv, workdir)
            csv_path = Path(argv[-1])
            csv = csv_path.read_bytes() if csv_path.exists() else b""
            csv_path.unlink(missing_ok=True)
            yield f"cli-reports/seed{seed}/{k}", digest(code, stdout, csv)


def rd_cell_outputs(cli, workdir):
    spec_path = workdir / "spec.json"

    def run(name, spec):
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        return name, digest(*cli_run(cli, ("rd-cell", str(spec_path)), workdir))

    for i, (m, n, D, kinetics, guesses) in enumerate(RD_KINETICS):
        for boundary in BOUNDARIES:
            spec = {"N": 3, "boundary": boundary, "m": m, "n": n, "D": D,
                    "kinetics": kinetics}
            yield run(f"rd-cell/{i}/{boundary}", spec)
            yield run(f"rd-cell/{i}/{boundary}/guesses", {**spec, "guesses": guesses})
            if kinetics["type"] == "fhn":
                for N in SMALL_GRIDS:
                    yield run(f"rd-cell/{i}/{boundary}/N{N}", {**spec, "N": N})


def projections(n):
    """P = I, e1 e1^T and the oblique e1 (e1 + e2)^T (n >= 2)."""
    e1 = np.eye(n)[0]
    yield "identity", np.eye(n)
    yield "e1e1", np.outer(e1, e1)
    if n >= 2:
        yield "oblique", np.outer(e1, e1 + np.eye(n)[1])


def analyze_run(cli, linsys, workdir, A, P, options=()):
    A_path, P_path = workdir / "A.json", workdir / "P.json"
    A_path.write_text(linsys.format_matrix_json(A), encoding="utf-8")
    P_path.write_text(linsys.format_matrix_json(P), encoding="utf-8")
    argv = ("analyze", str(A_path), str(P_path), *options)
    return digest(*cli_run(cli, argv, workdir))


def analyze_outputs(cli, linsys, workloads, workdir):
    kind = workloads.WORKLOADS["identity-ports"]
    load = kind(0, workdir, kind.requests(SECONDS))
    load.prepare()
    for k in range(ANALYZE_MATRICES):
        A = load.request(k)
        for name, P in projections(A.shape[0]):
            yield f"analyze/{k}/{name}", analyze_run(cli, linsys, workdir, A, P)
    for name, A, P in ROUTE_INPUTS:
        yield f"analyze/route/{name}", analyze_run(cli, linsys, workdir, A, P)
    name, A, P, options = SCAN_EXHAUSTED
    yield f"analyze/{name}", analyze_run(cli, linsys, workdir, A, P, options)


def genericity_outputs(cli, workdir):
    for n in range(1, 5):
        argv = ("--seed", "0", "genericity", "--n", str(n))
        yield " ".join(argv), digest(*cli_run(cli, argv, workdir))


def verdict_outputs(dumps_canonical, workloads, workdir):
    for name in ("identity-ports", "generic-ports"):
        kind = workloads.WORKLOADS[name]
        for seed in range(6):
            load = kind(seed, workdir, kind.requests(SECONDS))
            load.prepare()
            for k in range(load.count):
                verdict = load.run(load.request(k))
                yield f"{name}/seed{seed}/{k}", \
                    digest(dumps_canonical(verdict.to_json()))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from locact import cli, linsys
    from locact.serialize import dumps_canonical
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        outputs = [demo_outputs(tree), sweep_outputs(cli, workdir),
                   cli_report_outputs(cli, workloads, workdir),
                   rd_cell_outputs(cli, workdir),
                   analyze_outputs(cli, linsys, workloads, workdir),
                   genericity_outputs(cli, workdir),
                   verdict_outputs(dumps_canonical, workloads, workdir)]
        for stream in outputs:
            for name, value in stream:
                print(value, name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
