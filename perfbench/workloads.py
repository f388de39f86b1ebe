"""The uob benchmark workloads: ladder, census and tower.

``Workload.inputs`` generates a workload's inputs from the seed, writes the
files it needs and returns the rest as JSON-able data; run.py calls it in a
fresh process. The workload is then built from those inputs. ``run_pass``
runs every input once (or as often as asked), one job at a time in a seeded
order (a closed loop with one client), and hands each job's wall time to a
callback. A job's time covers only the calls into uob; the benchmark's own
output checks and tampering run between jobs.
Every operation is checked as it runs and counted in ``ledger``; a wrong
result is counted, never raised.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import uob
import uob.bases
import uob.cli
import uob.tower
import uob.verify
from uob.inclusion import InclusionSpec

RECON_TOL = 1e-8  # the CLI's default --tol; UOB_TOL is cleared by run.py
ENTRYWISE_TOL = 1e-10
# Finite changes only: uob verify accepts NaN and Inf entries (ROADMAP item 1),
# and the benchmark runs only operations the program gets right.
TAMPER_KINDS = ("perturb", "drop", "duplicate", "scale")
TAMPER_SIZE = 1e-6


def spectral_d(A, m):
    """The integer d with A^t n = d m (n = A m), or None. Decided here, not by uob."""
    n = super_dims(A, m)
    ds = set()
    for j, mj in enumerate(m):
        t = sum(row[j] * ni for row, ni in zip(A, n))
        if t % mj:
            return None
        ds.add(t // mj)
    return ds.pop() if len(ds) == 1 else None


def super_dims(A, m):
    return [sum(a * mj for a, mj in zip(row, m)) for row in A]


def connected(A) -> bool:
    """Connectivity of the bipartite Bratteli diagram of A."""
    s, r = len(A), len(A[0])
    seen, todo = {("row", 0)}, [("row", 0)]
    while todo:
        side, x = todo.pop()
        nbrs = (
            [("col", j) for j in range(r) if A[x][j]]
            if side == "row"
            else [("row", i) for i in range(s) if A[i][x]]
        )
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == s + r


def write_spec(path: Path, A, m, name="") -> str:
    doc = {"inclusion_matrix": A, "sub_dims": m, "super_dims": super_dims(A, m)}
    if name:
        doc["name"] = name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def basis_size(path: Path, d) -> bool:
    """True when the basis document at path says d and holds d elements."""
    try:
        doc = json.loads(path.read_text())
        return doc["d"] == d and len(doc["elements"]) == d
    except (ValueError, KeyError, TypeError):
        return False


def entrywise_deviation(path: Path, reference) -> float:
    """Largest entry difference between a basis document, parsed without uob,
    and a reference basis; inf when the shapes differ."""
    worst = 0.0
    try:
        elements = json.loads(path.read_text())["elements"]
        for element, W in zip(elements, reference.elements, strict=True):
            for entries, ref in zip(element, W.data, strict=True):
                flat = np.array(entries, dtype=float)
                dev = np.abs((flat[:, 0] + 1j * flat[:, 1]).reshape(ref.shape) - ref)
                worst = math.inf if np.isnan(dev).any() else max(worst, float(dev.max()))
    except (ValueError, KeyError, TypeError, IndexError):
        return math.inf
    return worst


@dataclass
class Op:
    code: int | None  # None: the call raised
    out: str
    err: str
    seconds: float


def run_cli(argv) -> Op:
    """``uob.cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = uob.cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a benchmark error
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - t0
    return Op(code, out.getvalue(), err.getvalue(), seconds)


class Ledger:
    """Operations attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def _add(tracer, counter, value=1):
    if tracer is not None:
        tracer.counts[counter] += value


class Workload:
    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        # job order, tampering and the --seed of every call; inputs() uses its own stream
        self.rng = np.random.default_rng([seed, 1])
        self.ledger = Ledger()

    def _seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def run_pass(self, tracer=None, deadline=math.inf, on_job=None, reps=None) -> list[float]:
        """Every input ``reps[k]`` times (once by default), in a seeded order,
        starting no job after ``deadline``. ``on_job(k, seconds)`` gets each
        job's wall time, between jobs. Returns each input's last job time."""
        last = [math.nan] * len(self.specs)
        order = np.repeat(np.arange(len(self.specs)), 1 if reps is None else reps)
        for k in map(int, self.rng.permutation(order)):
            if perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.job += 1
            last[k] = self.job(k, tracer)
            if on_job is not None:
                on_job(k, last[k])
        return last

    def post_check(self):
        """Checks run after the timed sections; none by default."""


# ---------------------------------------------------------------- ladder

# (name, inclusion matrix, sub dims, --method); d from the spectral condition.
LADDER = (
    ("c_in_m6", [[6]], [1], "abelian"),  # d = 36
    ("c_in_m8", [[8]], [1], "abelian"),  # d = 64
    ("c_in_m10", [[10]], [1], "abelian"),  # d = 100
    ("m3_in_m6_plus_m9", [[2], [3]], [3], "full_matrix_sub"),  # d = 13
    ("m1_m2_m3_in_m14", [[1, 2, 3]], [1, 2, 3], "full_matrix_super"),  # d = 14
    ("m2_m2_in_m4_m4", [[1, 1], [1, 1]], [2, 2], "tensor"),  # d = 4
    ("m3_m4_in_m25", [[3, 4]], [3, 4], "basic"),  # d = 25
)
LADDER_SMOKE = (LADDER[5],)


class Ladder(Workload):
    """``uob basis SPEC --method M --out FILE`` over a fixed size ladder."""

    @staticmethod
    def inputs(workdir: Path, seed: int, smoke=False) -> list:
        return [
            (name, A, m, method, write_spec(workdir / f"{name}.spec.json", A, m, name))
            for name, A, m, method in (LADDER_SMOKE if smoke else LADDER)
        ]

    def __init__(self, workdir, seed, inputs):
        super().__init__(workdir, seed)
        self.specs = [(*spec, spectral_d(spec[1], spec[2])) for spec in inputs]
        self.reference: dict[str, tuple[str, Path]] = {}  # name -> (sha256, file)

    def job(self, k, tracer) -> float:
        name, A, m, method, path, d = self.specs[k]
        out = self.dir / f"{name}.{'again' if name in self.reference else 'first'}.basis.json"
        op = run_cli(["basis", path, "--method", method, "--out", str(out), "--seed", self._seed()])
        self._check(name, d, op, out, tracer)
        return op.seconds

    def _check(self, name, d, op, out: Path, tracer):
        ok = op.code == 0 and f"wrote {d} elements" in op.out and out.is_file()
        if ok:
            data = out.read_bytes()
            _add(tracer, "io.bytes_written", len(data))
            digest = hashlib.sha256(data).hexdigest()
            if name not in self.reference:
                self.reference[name] = (digest, out)
            else:
                # construction is deterministic: every pass writes the same bytes
                ok = digest == self.reference[name][0]
                out.unlink()
        self.ledger.check(ok, f"ladder {name}: exit {op.code} {op.err.strip()[-200:]}")

    def post_check(self):
        """Each written basis has d elements and re-verifies; abelian ones match
        the independent entrywise construction."""
        for name, A, m, method, path, d in self.specs:
            if name not in self.reference:
                self.ledger.check(False, f"ladder {name}: no basis was written")
                continue
            out = self.reference[name][1]
            op = run_cli(["verify", str(out), "--seed", self._seed()])
            ok = basis_size(out, d) and op.code == 0
            self.ledger.check(ok, f"ladder {name}: re-verify exit {op.code}, or not {d} elements")
            if method == "abelian":
                ref = uob.bases.abelian_basis_entrywise(InclusionSpec.from_matrix(A, m))
                worst = entrywise_deviation(out, ref)
                self.ledger.check(worst <= ENTRYWISE_TOL, f"ladder {name}: entrywise deviation {worst}")


# ---------------------------------------------------------------- census

CENSUS_SPECS = 60  # specs sampled from the box
CENSUS_MAX_D = 16
CENSUS_SMOKE = (([[1, 1], [1, 1]], [1, 1]),)


def census_frame():
    """Every valid spec of the box s, r in {1,2,3}, entries 0..2, m_j in {1,2,3}.

    Returns (spec_at, weights, work): ``spec_at(i)`` is spec i as (A, m). A
    spec's weight is its probability under the plain draw (s, r, entries and
    m uniform, invalid specs redrawn), so sampling by weight matches that
    draw. Specs that meet the spectral condition with d > CENSUS_MAX_D are
    left out. ``work`` predicts the cost of a spec's job.
    """
    blocks, weights, work_of = [], [], []
    for s, r in itertools.product((1, 2, 3), repeat=2):
        every = np.array(list(itertools.product(range(3), repeat=s * r)), np.int16)
        every = every.reshape(-1, s, r)
        ms = np.array(list(itertools.product((1, 2, 3), repeat=r)), np.int16)
        # in chunks, so that the frame does not set the run's peak memory
        for mats in np.array_split(every, -(-len(every) // 1024)):
            mats = mats[(mats.sum(axis=2) > 0).all(axis=1) & (mats.sum(axis=1) > 0).all(axis=1)]
            n = (mats @ ms.T).transpose(0, 2, 1)  # n[a, b] = A_a m_b
            q, rem = np.divmod(n @ mats, ms[None])  # (A^t n) / m
            holds = (rem == 0).all(axis=2) & (q == q[..., :1]).all(axis=2)
            d = np.where(holds, q[..., 0], 0).astype(np.int64)
            # predicted job cost: a basis job makes about d (d + sum n_i^2 + 10)
            # calls of E; a channel job about prod T_j sum T_j conjugations
            T = mats.sum(axis=1, dtype=np.int64)
            channel = (n == n[..., :1]).all(axis=2) * (T.prod(axis=1) * T.sum(axis=1))[:, None]
            work = 10 + d * (d + (n.astype(np.int64) ** 2).sum(axis=2) + 10) + channel / 10
            a, b = np.nonzero(~holds | (d <= CENSUS_MAX_D))
            blocks.append((mats, ms, a, b))
            weights.append(np.full(len(a), 3.0 ** -(s * r + r)))
            work_of.append(work[a, b])
    starts = np.cumsum([0] + [len(blk[2]) for blk in blocks])

    def spec_at(i):
        k = int(np.searchsorted(starts, i, side="right")) - 1
        mats, ms, a, b = blocks[k]
        return mats[a[i - starts[k]]].tolist(), ms[b[i - starts[k]]].tolist()

    return spec_at, np.concatenate(weights), np.concatenate(work_of)


def census_sample(count: int):
    """``count`` specs drawn with probability proportional to weight.

    Systematic sampling over the frame sorted by predicted work: evenly
    spaced points on the cumulative weight. Each spec keeps the chance the
    plain draw gives it, and the mix of cheap and costly jobs follows the
    draw's mix closely instead of by chance.
    """
    spec_at, weights, work = census_frame()
    order = np.argsort(work, kind="stable")
    cum = np.cumsum(weights[order])
    points = (0.5 + np.arange(count)) * (cum[-1] / count)
    picked = order[np.minimum(np.searchsorted(cum, points, side="right"), len(order) - 1)]
    return [spec_at(i) for i in picked]


def relabel(rng, A, m):
    """The same inclusion with its super and sub blocks put in a random order."""
    rows, cols = rng.permutation(len(A)), rng.permutation(len(m))
    return [[A[i][j] for j in cols] for i in rows], [m[j] for j in cols]


def tamper(doc, kind, where):
    """One negative control: the basis document changed so that verify must
    reject it. ``where`` holds fractions in [0, 1) that pick the element, the
    block and the entry."""
    elements = doc["elements"]
    e = int(where[0] * len(elements))
    if kind == "drop" and len(elements) == 1:
        kind = "duplicate"  # verify crashes on an empty basis (ROADMAP item 1)
    if kind == "drop":
        del elements[e]
    elif kind == "duplicate":
        elements.insert(e, copy.deepcopy(elements[e]))
    elif kind == "scale":  # W -> (1 + TAMPER_SIZE) W is no longer unitary
        for block in elements[e]:
            for entry in block:
                entry[0] *= 1 + TAMPER_SIZE
                entry[1] *= 1 + TAMPER_SIZE
    else:
        block = elements[e][int(where[1] * len(elements[e]))]
        entry = block[int(where[2] * len(block))]
        entry[0] += TAMPER_SIZE
    return doc


@dataclass
class CensusSpec:
    A: list
    m: list
    path: str
    d: int | None
    connected: bool
    equal_n: bool
    channel_ok: bool
    column_counts: list
    unitary_count: int
    tamper: str  # the negative control this input's certified basis gets
    where: tuple  # which element, block and entry to tamper, as fractions of their counts


class Census(Workload):
    """Per spec: check, channel (equal n_i), basis auto then tensor, verify,
    and verify of one tampered copy of every certified basis.

    The seed relabels the blocks of every sampled spec, orders the jobs, and
    picks the tampered entries and the ``--seed`` of every call. Input k's
    basis gets tamper kind k mod 4, and the same copy in every pass, so its
    job does the same work in every pass. Relabeling
    gives each seed different inputs (matrices, layouts, files) that pose
    the same problems, so the cost of a pass barely depends on the seed;
    redrawing the specs themselves moved the job-time tail by a sixth
    between seeds.
    """

    @staticmethod
    def inputs(workdir: Path, seed: int, smoke=False) -> list:
        rng = np.random.default_rng([seed, 0])
        files: dict[str, str] = {}
        out = []
        for A, m in CENSUS_SMOKE if smoke else census_sample(CENSUS_SPECS):
            A, m = relabel(rng, A, m)
            key = json.dumps([A, m])
            if key not in files:
                files[key] = write_spec(workdir / f"census{len(files)}.spec.json", A, m)
            out.append((A, m, files[key]))
        return out

    def __init__(self, workdir, seed, inputs):
        super().__init__(workdir, seed)
        self.specs = []
        for k, (A, m, path) in enumerate(inputs):
            n = super_dims(A, m)
            T = [sum(row[j] for row in A) for j in range(len(m))]
            # E is a mixed-unitary channel iff the Markov trace is unique (connected
            # diagram) and standard: the all-ones vector is the Perron vector of A A^t.
            AAt_rows = {sum(sum(x * y for x, y in zip(ri, rk)) for rk in A) for ri in A}
            is_conn = connected(A)
            self.specs.append(
                CensusSpec(
                    A, m, path, spectral_d(A, m), is_conn, len(set(n)) == 1,
                    is_conn and len(AAt_rows) == 1, T, math.prod(T) * sum(T),
                    TAMPER_KINDS[k % len(TAMPER_KINDS)], tuple(self.rng.random(3)),
                )
            )

    def job(self, k, tracer) -> float:
        sp = self.specs[k]
        check = self.ledger.check
        label = f"census A={sp.A} m={sp.m}"
        op = run_cli(["check", sp.path])
        seconds = op.seconds
        try:
            doc = json.loads(op.out)
            ok = op.code == 0 and doc["holds"] == (sp.d is not None) and doc["d"] == sp.d
            ok = ok and doc["connected"] == sp.connected
        except (ValueError, KeyError):
            ok = False
        check(ok, f"{label}: check exit {op.code} {op.out[-200:]}")

        if sp.equal_n:
            op = run_cli(["channel", sp.path, "--seed", self._seed()])
            seconds += op.seconds
            if sp.channel_ok:
                try:
                    doc = json.loads(op.out)
                    ok = (
                        op.code == 0
                        and doc["unitary_count"] == sp.unitary_count
                        and doc["column_counts"] == sp.column_counts
                        and doc["agreement_residual"] <= RECON_TOL
                    )
                except (ValueError, KeyError):
                    ok = False
            else:
                ok = op.code == 1
            check(ok, f"{label}: channel exit {op.code} {op.err.strip()[-200:]}")

        out = self.dir / "census.basis.json"
        op = run_cli(["basis", sp.path, "--method", "auto", "--out", str(out), "--seed", self._seed()])
        seconds += op.seconds
        certified = self._basis(sp, op, "auto", out, label, tracer)
        if op.code == 3:
            op = run_cli(["basis", sp.path, "--method", "tensor", "--out", str(out), "--seed", self._seed()])
            seconds += op.seconds
            certified = self._basis(sp, op, "tensor", out, label, tracer)
        if not certified:
            return seconds

        op = run_cli(["verify", str(out), "--seed", self._seed()])
        seconds += op.seconds
        check(op.code == 0, f"{label}: verify of the written basis exit {op.code}")

        bad = self.dir / "census.tampered.json"
        bad.write_text(json.dumps(tamper(json.loads(out.read_text()), sp.tamper, sp.where)) + "\n")
        op = run_cli(["verify", str(bad), "--seed", self._seed()])
        seconds += op.seconds
        rejected = op.code in (1, 2)
        _add(tracer, "verify.tampered")
        _add(tracer, "verify.tampered_rejected", int(rejected))
        check(rejected, f"{label}: tampered copy ({sp.tamper}) exit {op.code} {op.err.strip()[-200:]}")
        return seconds

    def _basis(self, sp, op, method, out: Path, label, tracer) -> bool:
        """Check one ``uob basis`` call; True when it certified a basis."""
        if op.code == 0:
            ok = sp.d is not None and f"wrote {sp.d} elements" in op.out and out.is_file()
            if ok:
                _add(tracer, "io.bytes_written", out.stat().st_size)
                ok = basis_size(out, sp.d)
        elif op.code == 3:
            ok = method == "auto"  # auto found no construction
        elif op.code == 1:
            ok = method == "tensor" and "error:" in op.err  # refused, not failed
        else:
            ok = False
        self.ledger.check(ok, f"{label}: basis --method {method} exit {op.code} {op.err.strip()[-200:]}")
        return ok and op.code == 0



# ---------------------------------------------------------------- tower

# (name, inclusion matrix, sub dims) of the inclusion whose basic construction is built
TOWER = (
    ("c_in_m5", [[5]], [1]),  # D = 25, d = 25
    ("c_in_m2_plus_m3", [[2], [3]], [1]),  # D = 13, d = 13
    ("c_in_m1_m1_m2", [[1], [1], [2]], [1]),
    ("c2_in_m2_plus_m2", [[1, 1], [1, 1]], [1, 1]),
    ("c3_in_m3", [[1, 1, 1]], [1, 1, 1]),
)
TOWER_SMOKE = (TOWER[4],)
PARTITION_TOL = 1e-8
E1_TOL = 1e-9


class Tower(Workload):
    """Basic construction, its Fourier-twisted basis over the abelian basis,
    and verification against the dual expectation (the Gram projector)."""

    @staticmethod
    def inputs(workdir: Path, seed: int, smoke=False) -> list:
        return list(TOWER_SMOKE if smoke else TOWER)

    def __init__(self, workdir, seed, inputs):
        super().__init__(workdir, seed)
        self.specs = [
            (name, InclusionSpec.from_matrix(A, m), spectral_d(A, m), sum(n * n for n in super_dims(A, m)))
            for name, A, m in inputs
        ]

    def job(self, k, tracer) -> float:
        name, spec, d, D = self.specs[k]
        check = self.ledger.check
        tower, verify = uob.tower, uob.verify
        seed = int(self.rng.integers(2**31))
        t0 = perf_counter()
        try:
            bc = tower.build_basic_construction(spec)
            b0 = uob.bases.abelian_basis(spec)
            b1 = tower.basic_construction_basis(bc, b0)
            E1 = functools.partial(tower.dual_expectation, bc)
            reports = [
                verify.verify_unitary(b1),
                verify.verify_orthonormality(b1, E1),
                verify.verify_reconstruction(
                    b1, E1, seed=seed, sampler=tower.generated_algebra_sampler(bc)
                ),
            ]
            eye = bc.gns_algebra.identity()
            e1_resid = (E1(bc.e1_operator()) - (1 / d) * eye).norm_inf()
            total = bc.gns_algebra.zero()
            for U in b0.elements:
                L = bc.left_rep(U)
                total = total + L @ bc.e1_operator() @ L.adjoint()
            partition_resid = (total - eye).norm_inf()
        except Exception:  # a traceback fails every operation of the job
            seconds = perf_counter() - t0
            for _ in range(6):  # the six checks below
                check(False, f"tower {name}: {traceback.format_exc()[-300:]}")
            return seconds
        seconds = perf_counter() - t0
        check(bc.gns_dim == D and b1.d == d, f"tower {name}: D = {bc.gns_dim}, d = {b1.d}")
        for r in reports:
            check(r.passed and math.isfinite(r.residual), f"tower {name}: {r}")
        check(e1_resid <= E1_TOL, f"tower {name}: E1(e1) - I/d = {e1_resid}")
        check(partition_resid <= PARTITION_TOL, f"tower {name}: partition of unity {partition_resid}")
        return seconds


WORKLOADS = {"ladder": Ladder, "census": Census, "tower": Tower}
