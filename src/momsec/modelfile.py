"""Model files: a versioned JSON schema for single-chart models.

Tensor blocks are sparse lists of ``{"idx": [...], "expr": "..."}``
entries with 1-based indices (``idx_form`` and ``idx_bundle`` in place of
``idx`` in a ``multisym.eta[k]`` block below degree n), all read by
:func:`_entries`; the symmetry class of each block is fixed by the schema
(metric symmetric, form blocks antisymmetric, structure functions
antisymmetric in the lower pair, eta entries in each index list apart).
Entries that land on the same canonical slot twice are rejected as
contradictions, and so is a key given twice in one JSON object.  Missing
optional blocks default to zero.
"""

from __future__ import annotations

import hashlib
import json
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

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
    # each suite's plan (its step over its row graphs), keyed by suite
    # name and built by the first run of that suite, and the run plan of
    # each selection (its suites' plans and the one program over them),
    # keyed by its tuple of suite names and made by the first run of that
    # selection (see suites.run); a model is never modified after
    # loading, so both stay valid for every run after it
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def model_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ModelError(path, message)


def _object(pairs) -> dict:
    """A JSON object; a second value under one key would replace the first."""
    doc = {}
    for key, value in pairs:
        _expect(key not in doc, "$", f"key {key!r} given twice in one object")
        doc[key] = value
    return doc


def _finite(value) -> bool:
    """True for a JSON number, not a boolean, whose float value is finite."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _field(source, path: str, chart: Chart) -> ScalarField:
    """The field of an expression entry; equal sources are one node."""
    _expect(isinstance(source, str), path, "expression must be a string")
    try:
        return ExprField.parse(source, chart)
    except ExpressionError as exc:
        raise ModelError(path, f"bad expression: {exc}") from exc


def _indices(idx, epath: str, key: str, ranges) -> tuple[int, ...]:
    """The 0-based tuple of a list of 1-based indices, one per range."""
    _expect(isinstance(idx, list) and len(idx) == len(ranges), epath, f"'{key}' must have {len(ranges)} indices")
    noun = {"idx_form": "form index", "idx_bundle": "bundle index"}.get(key, "index")
    for slot, (value, upper) in enumerate(zip(idx, ranges)):
        # a JSON boolean is a Python int, and not an index
        _expect(type(value) is int, epath, f"{noun} {value!r} is not an integer")
        _expect(1 <= value <= upper, epath, f"{noun} {value} out of range 1..{upper} (slot {slot + 1})")
    return tuple(v - 1 for v in idx)


# Canonicalizers map the 0-based index tuples of an entry, one per index
# list, to (canonical key, sign); a key of None marks a repeated index in
# an antisymmetric slot.  Antisymmetric blocks use sort_signed itself.


def _plain(idx):
    return idx, 1


def _symmetric(idx):
    return tuple(sorted(idx)), 1


def _lower_pair(idx):
    """Structure functions: antisymmetric in the last two indices."""
    pair, sign = sort_signed(idx[1:])
    return (None if pair is None else idx[:1] + pair), sign


def _form_bundle(form, bundle):
    """eta[k] entries: antisymmetric in each index list apart; the key is
    the pair of canonical tuples and the sign the product of their signs."""
    (fkey, fsign), (bkey, bsign) = sort_signed(form), sort_signed(bundle)
    return (None if fkey is None or bkey is None else (fkey, bkey)), fsign * bsign


def _one_based(key) -> tuple:
    return tuple(_one_based(k) if isinstance(k, tuple) else k + 1 for k in key)


def _entries(block, path: str, chart: Chart, canon, **ranges):
    """Yield (canonical 0-based key, signed field) from a sparse block.

    ``ranges`` holds the upper bound of each index of each index list
    that an entry gives, by its key: ``idx``, or ``idx_form`` and
    ``idx_bundle``.  Rejects a repeated index in an antisymmetric slot
    and a second entry on one canonical slot, naming the entry.
    """
    _expect(isinstance(block, list), path, "expected a list of entries")
    needs = "entry needs " + ", ".join(f"'{key}'" for key in ranges) + " and 'expr'"
    seen = set()
    for pos, entry in enumerate(block):
        epath = f"{path}[{pos}]"
        _expect(isinstance(entry, dict), epath, "entry must be an object")
        _expect("expr" in entry and all(key in entry for key in ranges), epath, needs)
        key, sign = canon(*(_indices(entry[k], epath, k, upper) for k, upper in ranges.items()))
        _expect(key is not None, epath, "antisymmetric entry with repeated index")
        _expect(key not in seen, epath, f"duplicate or contradictory entry for slot {_one_based(key)}")
        seen.add(key)
        f = _field(entry["expr"], epath + ".expr", chart)
        yield key, f if sign > 0 else -f


def _table(block, path: str, chart: Chart, shape):
    """The fields of a block with no index symmetry, as nested lists of
    ``shape``, zero where it has no entry."""
    cells = dict(_entries(block, path, chart, _plain, idx=shape))
    table = [cells.get(key, const_field(0.0, chart.dim)) for key in itertools.product(*map(range, shape))]
    for size in reversed(shape[1:]):
        table = [table[i : i + size] for i in range(0, len(table), size)]
    return table


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
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_object)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelError("$", f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    schema = doc.get("schema")
    _expect(type(schema) is int and schema == SCHEMA_VERSION, "schema", f"expected schema {SCHEMA_VERSION}")

    chart = _load_chart(doc.get("chart"))
    d = chart.dim
    zero = const_field(0.0, d)

    alg_doc = doc.get("algebroid")
    _expect(isinstance(alg_doc, dict), "algebroid", "missing algebroid block")
    rank = alg_doc.get("rank")
    _expect(type(rank) is int and 1 <= rank <= MAX_RANK, "algebroid.rank", f"rank must be 1..{MAX_RANK}")

    anchor = _table(alg_doc.get("anchor", []), "algebroid.anchor", chart, (rank, d))
    structure = dict(
        _entries(alg_doc.get("structure", []), "algebroid.structure", chart, _lower_pair, idx=(rank, rank, rank))
    )
    alg = AlgebroidData(chart, rank, anchor, structure)
    conn = ConnectionData(alg, _table(alg_doc.get("connection", []), "algebroid.connection", chart, (rank, rank, d)))

    metric = None
    if "metric" in doc:
        metric = MetricField(chart, dict(_entries(doc["metric"], "metric", chart, _symmetric, idx=(d, d))))

    b_field = _load_form(doc.get("b_field", []), "b_field", chart, 2)
    eta_boundary = _load_form(doc.get("eta_boundary", []), "eta_boundary", chart, 1)

    mu = _table(doc.get("mu", []), "mu", chart, (rank,))
    alpha = _table(doc.get("alpha", []), "alpha", chart, (rank,))
    beta = VectorField(chart, _table(doc.get("beta", []), "beta", chart, (d,)))
    V = _field(doc["V"], "V", chart) if "V" in doc else zero
    tau = _table(doc.get("tau", []), "tau", chart, (rank, rank))

    beta_rigid = None
    if "beta_rigid" in doc:
        rigid = _table(doc["beta_rigid"], "beta_rigid", chart, (rank, d))
        beta_rigid = [FormField(chart, 1, {(i,): f for i, f in enumerate(row)}) for row in rigid]

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
    return FormField(chart, degree, dict(_entries(block, path, chart, sort_signed, idx=(chart.dim,) * degree)))


def _load_multisym(doc, chart: Chart, alg: AlgebroidData, conn: ConnectionData) -> PrenPlecticData:
    path = "multisym"
    _expect(isinstance(doc, dict), path, "must be an object")
    n = doc.get("n")
    _expect(type(n) is int and 1 <= n <= MAX_PLECTIC_DEGREE, f"{path}.n", f"n must be 1..{MAX_PLECTIC_DEGREE}")
    _expect(n + 1 <= chart.dim, f"{path}.n", f"need chart dimension at least n+1 = {n + 1}")

    h = _load_form(doc.get("h", []), f"{path}.h", chart, n + 1)

    eta: dict = {}
    eta_doc = doc.get("eta", {})
    _expect(isinstance(eta_doc, dict), f"{path}.eta", "must map degree strings to entry lists")
    degrees = {str(k): k for k in range(n + 1)}
    for key, block in eta_doc.items():
        kpath = f"{path}.eta[{key}]"
        k = degrees.get(key)
        _expect(k is not None, kpath, f"keys are degree strings '0'..'{n}'")
        if k == n:
            eta[n] = _load_form(block, kpath, chart, n)
            continue
        forms: dict = {}
        ranges = {"idx_form": (chart.dim,) * k, "idx_bundle": (alg.rank,) * (n - k)}
        for (fkey, bkey), f in _entries(block, kpath, chart, _form_bundle, **ranges):
            forms.setdefault(bkey, {})[fkey] = f
        eta[k] = BundleValuedForm(alg, k, n - k, {b: FormField(chart, k, c) for b, c in forms.items()})
    return PrenPlecticData(alg, conn, n, h, eta)


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        raw = fh.read()
    return load_model_bytes(raw)
