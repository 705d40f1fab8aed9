"""Portable text documents for trained models and fitted transforms.

All documents are UTF-8 JSON with a ``schema_version`` and a ``kind``
tag ("dense", "lstm", "scalers", "linear", "offsets"). Every writer returns
the document's text, built by ``document``; every reader takes that text
and checks it with ``loads``. Parameter arrays are stored row-major at
full decimal precision, so a serialize/deserialize round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .ingest import open_text
from .lstm import GATES, LstmModel, check_lstm
from .nn import DenseNetwork, check_dense
from .preprocess import StandardScaler
from .trend import LinearModel, OffsetK

SCHEMA_VERSION = 1


def _require(doc: dict, field: str, kind: str):
    if not isinstance(doc, dict) or field not in doc:
        raise ParseError(f"{kind} document is missing field '{field}'")
    return doc[field]


# JSON types a typed field admits, by element type; a bool is never a number.
_JSON_TYPES = {
    float: ({int, float}, "number"),
    int: ({int}, "integer"),
    str: ({str}, "string"),
    list: ({list}, "array"),
}


def _number(doc: dict, field: str, kind: str, element: type = float):
    """``doc[field]``, which must be a JSON number (an integer when
    ``element`` is int), converted to ``element``."""
    value = _require(doc, field, kind)
    types, name = _JSON_TYPES[element]
    if type(value) not in types:
        raise ParseError(
            f"{kind} document: field '{field}' must be a JSON {name}, "
            f"not {type(value).__name__}"
        )
    return element(value)


def _list(name: str, values, element: type = float, length: int | None = None) -> list:
    """``values``, which must be a JSON array of ``element`` values (see
    ``_number``), ``length`` of them unless None."""
    types, what = _JSON_TYPES[element]
    if not isinstance(values, list) or not set(map(type, values)) <= types:
        raise ParseError(f"field '{name}' must be an array of JSON {what}s")
    if length is not None and len(values) != length:
        raise ParseError(
            f"field '{name}' has {len(values)} values, expected {length}"
        )
    return values


def _matrix(name: str, flat, rows: int, cols: int) -> np.ndarray:
    return np.array(_list(name, flat, length=rows * cols), dtype=float).reshape(rows, cols)


def _vector(name: str, flat, length: int) -> np.ndarray:
    return np.array(_list(name, flat, length=length), dtype=float)


def _finite(text: str) -> float:
    """A JSON float or constant (NaN, Infinity), which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number: {text}")
    return value


def _finite_int(text: str) -> int:
    """A JSON integer, which must lie within float range."""
    _finite(text)
    return int(text)


def _checked(kind: str, check, *args) -> None:
    """Run a model's own ConfigError check on a document's fields, as a ParseError."""
    try:
        check(*args)
    except ConfigError as exc:
        raise ParseError(f"{kind} document: {exc}") from None


def dumps(doc: dict) -> str:
    """The text of a JSON artifact: one-space indent and a trailing newline."""
    return json.dumps(doc, indent=1) + "\n"


def document(kind: str, body: dict) -> str:
    """The text of a ``kind`` document: ``schema_version``, ``kind``, then ``body``."""
    return dumps({"schema_version": SCHEMA_VERSION, "kind": kind, **body})


def read_file(path, parse):
    """``parse`` of the text of the file at ``path``, read through
    ``ingest.open_text``, so a ParseError from the read or from ``parse``
    (the JSON, the document kind, a field) names the file."""
    with open_text(path) as handle:
        return parse(handle.read())


def parse_json(text: str):
    """Parse JSON text; NaN, Infinity and numbers beyond float range (such
    as 1e999) are ParseErrors, as in every CSV."""
    try:
        return json.loads(
            text, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # from _finite, or an integer past the digit limit: no position
        raise ParseError(f"malformed JSON: {exc}") from None


def loads(text: str, expected_kind: str) -> dict:
    """Parse a document (see ``parse_json``) of this schema version and of
    ``expected_kind``."""
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = _number(doc, "schema_version", "model", int)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version: {version}")
    kind = _require(doc, "kind", "model")
    if kind != expected_kind:
        raise ParseError(f"expected a {expected_kind!r} document, found {kind!r}")
    return doc


def commit(artifacts: dict) -> None:
    """Write one stage's ``{path: text}`` artifacts: each to a temp file
    beside its path, then, once every temp file is complete, each renamed
    over its path in order, so a failed write replaces nothing. ``text``
    is a str or an iterable of lines (``ingest.csv_text``), written as it
    is produced; a DataError raised while it is produced (a number that
    cannot be written) is prefixed with the path."""
    temps = {}
    try:
        for path, text in artifacts.items():
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with tmp.open("w", newline="", encoding="utf-8") as handle:
                try:
                    handle.writelines([text] if isinstance(text, str) else text)
                except DataError as exc:
                    raise DataError(f"{path}: {exc}") from None
        for path, tmp in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


def load_document(path, expected_kind: str) -> dict:
    return read_file(path, lambda text: loads(text, expected_kind))


# -- dense network ------------------------------------------------------


def serialize_network(net: DenseNetwork) -> str:
    return document("dense", {
        "layer_dims": list(net.layer_dims),
        "activations": list(net.activations),
        "dropout_rate": net.dropout_rate,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    })


def deserialize_network(text: str) -> DenseNetwork:
    doc = loads(text, "dense")
    dims = tuple(_list("layer_dims", _require(doc, "layer_dims", "dense"), int))
    activations = tuple(_list("activations", _require(doc, "activations", "dense"), str))
    dropout_rate = _number(doc, "dropout_rate", "dense")
    _checked("dense", check_dense, dims, activations, dropout_rate)
    raw_w = _list("weights", _require(doc, "weights", "dense"), list, len(dims) - 1)
    raw_b = _list("biases", _require(doc, "biases", "dense"), list, len(dims) - 1)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(_matrix(f"weights[{i}]", raw_w[i], fan_out, fan_in))
        biases.append(_vector(f"biases[{i}]", raw_b[i], fan_out))
    return DenseNetwork(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        activations=activations,
        dropout_rate=dropout_rate,
    )


# -- lstm ---------------------------------------------------------------


def serialize_lstm(model: LstmModel) -> str:
    doc = {
        "hidden_size": model.hidden_size,
        "input_size": 1,
        "output_len": model.output_len,
        "lookback": model.lookback,
        "input_dropout_rate": model.input_dropout_rate,
    }
    for gate in GATES:
        w, u, b = model.gate(gate)
        doc[f"w_{gate}"] = w.ravel().tolist()
        doc[f"u_{gate}"] = u.ravel().tolist()
        doc[f"b_{gate}"] = b.tolist()
    doc["head_w"] = model.head_w.ravel().tolist()
    doc["head_b"] = model.head_b.tolist()
    return document("lstm", doc)


def deserialize_lstm(text: str) -> LstmModel:
    doc = loads(text, "lstm")
    hidden = _number(doc, "hidden_size", "lstm", int)
    if _number(doc, "input_size", "lstm", int) != 1:
        raise ParseError(f"lstm document: input_size must be 1, got {doc['input_size']!r}")
    out = _number(doc, "output_len", "lstm", int)
    lookback = _number(doc, "lookback", "lstm", int)
    dropout_rate = _number(doc, "input_dropout_rate", "lstm")
    _checked("lstm", check_lstm, hidden, out, lookback, dropout_rate)
    w, u, b = [], [], []
    for gate in GATES:
        w.append(_matrix(f"w_{gate}", _require(doc, f"w_{gate}", "lstm"), hidden, 1))
        u.append(_matrix(f"u_{gate}", _require(doc, f"u_{gate}", "lstm"), hidden, hidden))
        b.append(_vector(f"b_{gate}", _require(doc, f"b_{gate}", "lstm"), hidden))
    return LstmModel(
        hidden_size=hidden,
        output_len=out,
        lookback=lookback,
        input_dropout_rate=dropout_rate,
        weights=np.hstack([np.vstack(w), np.vstack(u)]),
        bias=np.concatenate(b),
        head_w=_matrix("head_w", _require(doc, "head_w", "lstm"), out, hidden),
        head_b=_vector("head_b", _require(doc, "head_b", "lstm"), out),
    )


# -- fitted transforms and small models ---------------------------------


def scalers_to_document(
    scaler: StandardScaler, feature_names, log_offset: float
) -> str:
    return document("scalers", {
        "feature_names": list(feature_names),
        "mean": np.asarray(scaler.mean).tolist(),
        "std": np.asarray(scaler.std).tolist(),
        "n_fit_rows": scaler.n_fit_rows,
        "log_offset": log_offset,
    })


def scalers_from_document(text: str) -> tuple[StandardScaler, list[str], float]:
    doc = loads(text, "scalers")
    names = _list("feature_names", _require(doc, "feature_names", "scalers"), str)
    mean = _vector("mean", _require(doc, "mean", "scalers"), len(names))
    std = _vector("std", _require(doc, "std", "scalers"), len(names))
    if np.any(std <= 0):
        raise ParseError("scalers document: every 'std' value must be positive")
    scaler = StandardScaler(mean, std, _number(doc, "n_fit_rows", "scalers", int))
    return scaler, names, _number(doc, "log_offset", "scalers")


def _numbers(cls, doc: dict, kind: str):
    """A ``cls`` dataclass of float fields, each read from ``doc`` by its name."""
    return cls(*(_number(doc, field.name, kind) for field in fields(cls)))


def linear_to_document(model: LinearModel) -> str:
    return document("linear", asdict(model))


def linear_from_document(text: str) -> LinearModel:
    return _numbers(LinearModel, loads(text, "linear"), "linear")


def offsets_to_document(offsets: dict[str, OffsetK]) -> str:
    return document("offsets", {
        "regions": {region: asdict(k) for region, k in sorted(offsets.items())},
    })


def offsets_from_document(text: str) -> dict[str, OffsetK]:
    regions = _require(loads(text, "offsets"), "regions", "offsets")
    if not isinstance(regions, dict):
        raise ParseError("offsets document: field 'regions' must be a JSON object")
    return {region: _numbers(OffsetK, entry, "offsets") for region, entry in regions.items()}
