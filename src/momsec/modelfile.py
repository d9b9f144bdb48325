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
    ZERO,
    Chart,
    ExprField,
    FormField,
    MetricField,
    ScalarField,
    VectorField,
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
    # the run plan of each selection (its suites' plans and the one
    # program over them), keyed by its tuple of suite names and made by
    # the first run of that selection (see suites.run); a model is never
    # modified after loading, so it stays valid for every run after it
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def model_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()


# A message that names a value is formatted only where its check has
# failed, so a model file that loads builds no error text.


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ModelError(path, message)


def _object(pairs) -> dict:
    """A JSON object; a second value under one key would replace the first."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _expect(key not in seen, "$", f"key {key!r} given twice in one object")
            seen.add(key)
    return doc


def _finite(value) -> bool:
    """True for a JSON number, not a boolean, whose float value is finite."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _field(source, path: str, chart: Chart, pos: int | None = None) -> ScalarField:
    """The field of an expression at ``path``, or of the expression of
    entry ``pos`` of the block at ``path``; equal sources are one node."""
    if isinstance(source, str):
        try:
            return ExprField.parse(source, chart)
        except ExpressionError as exc:
            raise ModelError(_expr_path(path, pos), f"bad expression: {exc}") from exc
    raise ModelError(_expr_path(path, pos), "expression must be a string")


def _expr_path(path: str, pos: int | None) -> str:
    return path if pos is None else f"{path}[{pos}].expr"


_NOUNS = {"idx_form": "form index", "idx_bundle": "bundle index"}


def _indices(idx, path: str, pos: int, key: str, ranges) -> tuple[int, ...]:
    """The 0-based tuple of the list of 1-based indices under ``key`` of
    entry ``pos`` of the block at ``path``, one per range."""
    if not (isinstance(idx, list) and len(idx) == len(ranges)):
        raise ModelError(f"{path}[{pos}]", f"'{key}' must have {len(ranges)} indices")
    for slot, (value, upper) in enumerate(zip(idx, ranges)):
        # a JSON boolean is a Python int, and not an index
        if type(value) is not int:
            raise ModelError(f"{path}[{pos}]", f"{_NOUNS.get(key, 'index')} {value!r} is not an integer")
        if not 1 <= value <= upper:
            noun = _NOUNS.get(key, "index")
            raise ModelError(f"{path}[{pos}]", f"{noun} {value} out of range 1..{upper} (slot {slot + 1})")
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
    keys = ("expr", *ranges)
    seen = set()
    for pos, entry in enumerate(block):
        if not (isinstance(entry, dict) and all(map(entry.__contains__, keys))):
            needs = "entry needs " + ", ".join(f"'{key}'" for key in ranges) + " and 'expr'"
            _expect(isinstance(entry, dict), f"{path}[{pos}]", "entry must be an object")
            raise ModelError(f"{path}[{pos}]", needs)
        key, sign = canon(*(_indices(entry[k], path, pos, k, upper) for k, upper in ranges.items()))
        if key is None:
            raise ModelError(f"{path}[{pos}]", "antisymmetric entry with repeated index")
        if key in seen:
            raise ModelError(f"{path}[{pos}]", f"duplicate or contradictory entry for slot {_one_based(key)}")
        seen.add(key)
        f = _field(entry["expr"], path, chart, pos)
        yield key, f if sign > 0 else -f


def _table(block, path: str, chart: Chart, shape):
    """The fields of a block with no index symmetry, as nested lists of
    ``shape``, zero where it has no entry."""
    cells = dict(_entries(block, path, chart, _plain, idx=shape))
    zero = ZERO[chart.dim]
    if cells:
        table = [cells.get(key, zero) for key in itertools.product(*map(range, shape))]
    else:
        table = [zero] * math.prod(shape)
    for size in reversed(shape[1:]):
        table = [table[i : i + size] for i in range(0, len(table), size)]
    return table


def _load_chart(doc, path="chart") -> Chart:
    _expect(isinstance(doc, dict), path, "missing chart block")
    coords = doc.get("coordinates")
    where = path + ".coordinates"
    _expect(isinstance(coords, list) and coords, where, "need a list of names")
    for name in coords:
        if not (isinstance(name, str) and _IDENT_RE.match(name)):
            raise ModelError(where, f"bad name {name!r}")
    _expect(len(set(coords)) == len(coords), where, "names must be distinct")
    if len(coords) > MAX_DIMENSION:
        raise ModelError(where, f"at most {MAX_DIMENSION} coordinates")
    box_doc = doc.get("box")
    _expect(isinstance(box_doc, list) and len(box_doc) == len(coords), path + ".box", "one interval per coordinate")
    box = []
    for pos, pair in enumerate(box_doc):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, (int, float)) for v in pair)):
            raise ModelError(f"{path}.box[{pos}]", "interval must be [lo, hi]")
        if not (_finite(pair[0]) and _finite(pair[1]) and _finite(pair[1] - pair[0])):
            raise ModelError(f"{path}.box[{pos}]", "interval endpoints and width must be finite numbers")
        if not pair[1] > pair[0]:
            raise ModelError(f"{path}.box[{pos}]", "interval must be non-degenerate")
        box.append((float(pair[0]), float(pair[1])))
    return Chart(tuple(coords), tuple(box))


def load_model_bytes(raw: bytes) -> Model:
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_object)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelError("$", f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    schema = doc.get("schema")
    if not (type(schema) is int and schema == SCHEMA_VERSION):
        raise ModelError("schema", f"expected schema {SCHEMA_VERSION}")

    chart = _load_chart(doc.get("chart"))
    d = chart.dim
    zero = ZERO[d]

    alg_doc = doc.get("algebroid")
    _expect(isinstance(alg_doc, dict), "algebroid", "missing algebroid block")
    rank = alg_doc.get("rank")
    if not (type(rank) is int and 1 <= rank <= MAX_RANK):
        raise ModelError("algebroid.rank", f"rank must be 1..{MAX_RANK}")

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
    if not (type(n) is int and 1 <= n <= MAX_PLECTIC_DEGREE):
        raise ModelError(f"{path}.n", f"n must be 1..{MAX_PLECTIC_DEGREE}")
    if n + 1 > chart.dim:
        raise ModelError(f"{path}.n", f"need chart dimension at least n+1 = {n + 1}")

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
