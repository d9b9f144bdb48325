"""Model files: a versioned JSON schema for single-chart models.

Tensor blocks are sparse lists of ``{"idx": [...], "expr": "..."}``
entries with 1-based indices; the symmetry class of each block is fixed
by the schema (metric symmetric, 2-form blocks antisymmetric, structure
functions antisymmetric in the lower pair).  Entries that land on the
same canonical slot twice are rejected as contradictions.  Missing
optional blocks default to zero.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

from .algebroid import AlgebroidData
from .connections import ConnectionData
from .expressions import ExpressionError
from .fields import (
    Chart,
    ExprField,
    FormField,
    MetricField,
    ScalarField,
    VectorField,
    const_field,
    sort_signed,
)
from .multisym import BundleValuedForm, PrenPlecticData

SCHEMA_VERSION = 1
MAX_DIMENSION = 8
MAX_RANK = 8
MAX_PLECTIC_DEGREE = 4

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


class ModelError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class Sampling:
    seed: int = 42
    points: int = 32


@dataclass
class Model:
    chart: Chart
    alg: AlgebroidData
    conn: ConnectionData
    metric: MetricField | None
    b_field: FormField
    eta_boundary: FormField
    mu: list
    alpha: list
    beta: VectorField
    V: ScalarField
    tau: list
    beta_rigid: list | None
    multisym: PrenPlecticData | None
    sampling: Sampling
    tolerance: float
    raw_bytes: bytes

    @property
    def model_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()

    @property
    def has_metric(self) -> bool:
        return self.metric is not None


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ModelError(path, message)


def _finite(value) -> bool:
    """True for a JSON number, not a boolean, whose float value is finite."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_expr(source, chart: Chart, path: str) -> ScalarField:
    _expect(isinstance(source, str), path, "expression must be a string")
    try:
        return ExprField.parse(source, chart)
    except (ExpressionError, RecursionError) as exc:  # the parser recurses once per nesting level
        raise ModelError(path, f"bad expression: {exc}") from exc


def _entries(block, path: str, arity: int, chart: Chart, ranges):
    """Yield (0-based index tuple, field, entry path) from a sparse block."""
    _expect(isinstance(block, list), path, "expected a list of {'idx': ..., 'expr': ...} entries")
    for pos, entry in enumerate(block):
        epath = f"{path}[{pos}]"
        _expect(isinstance(entry, dict), epath, "entry must be an object")
        _expect("idx" in entry and "expr" in entry, epath, "entry needs 'idx' and 'expr'")
        idx = entry["idx"]
        _expect(isinstance(idx, list) and len(idx) == arity, epath, f"'idx' must have {arity} indices")
        zero_based = []
        for slot, (value, upper) in enumerate(zip(idx, ranges)):
            _expect(isinstance(value, int), epath, "indices must be integers")
            _expect(1 <= value <= upper, epath, f"index {value} out of range 1..{upper} (slot {slot + 1})")
            zero_based.append(value - 1)
        yield tuple(zero_based), _parse_expr(entry["expr"], chart, epath + ".expr"), epath


def _load_chart(doc, path="chart") -> Chart:
    _expect(isinstance(doc, dict), path, "missing chart block")
    coords = doc.get("coordinates")
    _expect(isinstance(coords, list) and coords, f"{path}.coordinates", "need a list of names")
    for name in coords:
        _expect(isinstance(name, str) and _IDENT_RE.match(name), f"{path}.coordinates", f"bad name {name!r}")
    _expect(len(set(coords)) == len(coords), f"{path}.coordinates", "names must be distinct")
    _expect(len(coords) <= MAX_DIMENSION, f"{path}.coordinates", f"at most {MAX_DIMENSION} coordinates")
    box_doc = doc.get("box")
    _expect(isinstance(box_doc, list) and len(box_doc) == len(coords), f"{path}.box", "one interval per coordinate")
    box = []
    for pos, pair in enumerate(box_doc):
        _expect(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, (int, float)) for v in pair),
            f"{path}.box[{pos}]",
            "interval must be [lo, hi]",
        )
        _expect(
            _finite(pair[0]) and _finite(pair[1]) and _finite(pair[1] - pair[0]),
            f"{path}.box[{pos}]",
            "interval endpoints and width must be finite numbers",
        )
        _expect(pair[1] > pair[0], f"{path}.box[{pos}]", "interval must be non-degenerate")
        box.append((float(pair[0]), float(pair[1])))
    return Chart(tuple(coords), tuple(box))


def load_model_bytes(raw: bytes) -> Model:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelError("$", f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    _expect(doc.get("schema") == SCHEMA_VERSION, "schema", f"expected schema {SCHEMA_VERSION}")

    chart = _load_chart(doc.get("chart"))
    d = chart.dim
    zero = const_field(0.0, d)

    alg_doc = doc.get("algebroid")
    _expect(isinstance(alg_doc, dict), "algebroid", "missing algebroid block")
    rank = alg_doc.get("rank")
    _expect(isinstance(rank, int) and 1 <= rank <= MAX_RANK, "algebroid.rank", f"rank must be 1..{MAX_RANK}")

    anchor = [[zero for _ in range(d)] for _ in range(rank)]
    seen = set()
    for idx, f, epath in _entries(alg_doc.get("anchor", []), "algebroid.anchor", 2, chart, (rank, d)):
        _expect(idx not in seen, epath, f"duplicate anchor entry {tuple(i + 1 for i in idx)}")
        seen.add(idx)
        anchor[idx[0]][idx[1]] = f

    structure = {}
    seen = set()
    for idx, f, epath in _entries(
        alg_doc.get("structure", []), "algebroid.structure", 3, chart, (rank, rank, rank)
    ):
        c, a, b = idx
        _expect(a != b, epath, "structure entry with repeated lower indices is identically zero")
        key = (c, a, b) if a < b else (c, b, a)
        _expect(key not in seen, epath, "duplicate or contradictory structure entry")
        seen.add(key)
        structure[key] = f if a < b else -f
    alg = AlgebroidData(chart, rank, anchor, structure)

    gamma = [[[zero for _ in range(d)] for _ in range(rank)] for _ in range(rank)]
    seen = set()
    for idx, f, epath in _entries(
        alg_doc.get("connection", []), "algebroid.connection", 3, chart, (rank, rank, d)
    ):
        _expect(idx not in seen, epath, "duplicate connection entry")
        seen.add(idx)
        gamma[idx[0]][idx[1]][idx[2]] = f
    conn = ConnectionData(alg, gamma)

    metric = None
    if "metric" in doc:
        entries = {}
        seen = set()
        for idx, f, epath in _entries(doc["metric"], "metric", 2, chart, (d, d)):
            i, j = min(idx), max(idx)
            _expect((i, j) not in seen, epath, "duplicate or contradictory metric entry")
            seen.add((i, j))
            entries[(i, j)] = f
        metric = MetricField(chart, entries)

    b_field = _load_form(doc.get("b_field", []), "b_field", chart, 2)
    eta_comps = _load_components(doc.get("eta_boundary", []), "eta_boundary", chart, d)
    eta_boundary = FormField(chart, 1, {(i,): f for i, f in enumerate(eta_comps)})

    mu = _load_components(doc.get("mu", []), "mu", chart, rank)
    alpha = _load_components(doc.get("alpha", []), "alpha", chart, rank)
    beta = VectorField(chart, _load_components(doc.get("beta", []), "beta", chart, d))

    V = _parse_expr(doc["V"], chart, "V") if "V" in doc else zero

    tau = [[zero for _ in range(rank)] for _ in range(rank)]
    seen = set()
    for idx, f, epath in _entries(doc.get("tau", []), "tau", 2, chart, (rank, rank)):
        _expect(idx not in seen, epath, "duplicate tau entry")
        seen.add(idx)
        tau[idx[0]][idx[1]] = f

    beta_rigid = None
    if "beta_rigid" in doc:
        forms = [FormField(chart, 1) for _ in range(rank)]
        seen = set()
        for idx, f, epath in _entries(doc["beta_rigid"], "beta_rigid", 2, chart, (rank, d)):
            _expect(idx not in seen, epath, "duplicate beta_rigid entry")
            seen.add(idx)
            forms[idx[0]].comps[(idx[1],)] = f
        beta_rigid = forms

    multisym = None
    if "multisym" in doc:
        multisym = _load_multisym(doc["multisym"], chart, alg, conn)

    sampling = Sampling()
    if "sampling" in doc:
        s = doc["sampling"]
        _expect(isinstance(s, dict), "sampling", "must be an object")
        if "seed" in s:
            _expect(type(s["seed"]) is int and s["seed"] >= 0, "sampling.seed", "seed must be a non-negative integer")
            sampling.seed = s["seed"]
        if "points" in s:
            _expect(type(s["points"]) is int and s["points"] >= 1, "sampling.points", "points must be positive")
            sampling.points = s["points"]

    tolerance = 1e-8
    if "tolerances" in doc:
        t = doc["tolerances"]
        _expect(isinstance(t, dict), "tolerances", "must be an object")
        if "default" in t:
            _expect(_finite(t["default"]) and t["default"] > 0, "tolerances.default", "must be finite and positive")
            tolerance = float(t["default"])

    return Model(
        chart=chart,
        alg=alg,
        conn=conn,
        metric=metric,
        b_field=b_field,
        eta_boundary=eta_boundary,
        mu=mu,
        alpha=alpha,
        beta=beta,
        V=V,
        tau=tau,
        beta_rigid=beta_rigid,
        multisym=multisym,
        sampling=sampling,
        tolerance=tolerance,
        raw_bytes=raw,
    )


def _load_form(block, path: str, chart: Chart, degree: int) -> FormField:
    out = FormField(chart, degree)
    seen = set()
    for idx, f, epath in _entries(block, path, degree, chart, (chart.dim,) * degree):
        canon, sign = sort_signed(idx)
        _expect(canon is not None, epath, "antisymmetric entry with repeated index")
        _expect(canon not in seen, epath, "duplicate or contradictory entry")
        seen.add(canon)
        out.comps[canon] = f if sign > 0 else -f
    return out


def _load_components(block, path: str, chart: Chart, count: int):
    """One field per index 1..count, zero where the block has no entry."""
    out = [const_field(0.0, chart.dim) for _ in range(count)]
    seen = set()
    for idx, f, epath in _entries(block, path, 1, chart, (count,)):
        _expect(idx not in seen, epath, "duplicate entry")
        seen.add(idx)
        out[idx[0]] = f
    return out


def _load_multisym(doc, chart: Chart, alg: AlgebroidData, conn: ConnectionData) -> PrenPlecticData:
    path = "multisym"
    _expect(isinstance(doc, dict), path, "must be an object")
    n = doc.get("n")
    _expect(isinstance(n, int) and 1 <= n <= MAX_PLECTIC_DEGREE, f"{path}.n", f"n must be 1..{MAX_PLECTIC_DEGREE}")
    _expect(n + 1 <= chart.dim, f"{path}.n", f"need chart dimension at least n+1 = {n + 1}")

    h = _load_form(doc.get("h", []), f"{path}.h", chart, n + 1)

    eta: dict = {}
    eta_doc = doc.get("eta", {})
    _expect(isinstance(eta_doc, dict), f"{path}.eta", "must map degree strings to entry lists")
    for key, block in eta_doc.items():
        kpath = f"{path}.eta[{key}]"
        _expect(isinstance(key, str) and key.isdecimal(), kpath, "keys are degree strings '0'..'n'")
        k = int(key)
        _expect(0 <= k <= n, kpath, f"degree must be 0..{n}")
        if k == n:
            eta[n] = _load_form(block, kpath, chart, n)
            continue
        bundle_deg = n - k
        comps: dict = {}
        seen = set()
        _expect(isinstance(block, list), kpath, "expected a list of entries")
        for pos, entry in enumerate(block):
            epath = f"{kpath}[{pos}]"
            _expect(isinstance(entry, dict), epath, "entry must be an object")
            _expect(
                "idx_form" in entry and "idx_bundle" in entry and "expr" in entry,
                epath,
                "entry needs 'idx_form', 'idx_bundle' and 'expr'",
            )
            fidx = entry["idx_form"]
            bidx = entry["idx_bundle"]
            _expect(isinstance(fidx, list) and len(fidx) == k, epath, f"'idx_form' must have {k} indices")
            _expect(isinstance(bidx, list) and len(bidx) == bundle_deg, epath, f"'idx_bundle' must have {bundle_deg} indices")
            for v in fidx:
                _expect(isinstance(v, int) and 1 <= v <= chart.dim, epath, f"form index {v} out of range 1..{chart.dim}")
            for v in bidx:
                _expect(isinstance(v, int) and 1 <= v <= alg.rank, epath, f"bundle index {v} out of range 1..{alg.rank}")
            fcanon, fsign = sort_signed(tuple(v - 1 for v in fidx))
            bcanon, bsign = sort_signed(tuple(v - 1 for v in bidx))
            _expect(fcanon is not None, epath, "repeated form index")
            _expect(bcanon is not None, epath, "repeated bundle index")
            _expect((fcanon, bcanon) not in seen, epath, "duplicate or contradictory entry")
            seen.add((fcanon, bcanon))
            f = _parse_expr(entry["expr"], chart, epath + ".expr")
            if fsign * bsign < 0:
                f = -f
            form = comps.setdefault(bcanon, FormField(chart, k))
            _expect(fcanon not in form.comps, epath, "duplicate or contradictory entry")
            form.comps[fcanon] = f
        eta[k] = BundleValuedForm(alg, k, bundle_deg, comps)
    return PrenPlecticData(alg, conn, n, h, eta)


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        raw = fh.read()
    return load_model_bytes(raw)
