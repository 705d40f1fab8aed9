import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from larvaecast.errors import DataError, ParseError
from larvaecast.ingest import csv_text, fmt
from larvaecast.lstm import lstm_forward, lstm_init
from test_lstm import reference_cell
from larvaecast.nn import ABUNDANCE_LAYER_DIMS, xavier_init
from larvaecast.preprocess import fit_scaler
from larvaecast.serialize import (
    deserialize_lstm,
    deserialize_network,
    linear_from_document,
    linear_to_document,
    commit,
    dumps,
    loads,
    offsets_from_document,
    offsets_to_document,
    scalers_from_document,
    scalers_to_document,
    serialize_lstm,
    serialize_network,
)
from larvaecast.trend import LinearModel, OffsetK


class TestDenseRoundTrip:
    def test_production_network_bit_exact(self):
        net = xavier_init(ABUNDANCE_LAYER_DIMS, seed=123)
        # give the biases nontrivial values so the round trip is honest
        for b in net.biases:
            b[:] = np.random.default_rng(1).normal(size=b.shape)
        restored = deserialize_network(serialize_network(net))
        assert restored.layer_dims == net.layer_dims
        assert restored.activations == net.activations
        assert restored.dropout_rate == net.dropout_rate
        np.testing.assert_array_equal(net.params, restored.params)

    def test_truncated_document_rejected(self):
        text = serialize_network(xavier_init([4, 3, 1], seed=0))
        with pytest.raises(ParseError, match="line"):
            deserialize_network(text[: len(text) // 2])

    def test_mismatched_array_length_rejected(self):
        net = xavier_init([4, 3, 1], seed=0)
        doc = json.loads(serialize_network(net))
        doc["weights"][0] = doc["weights"][0][:-1]
        with pytest.raises(ParseError, match="weights"):
            deserialize_network(json.dumps(doc))

    def test_wrong_kind_rejected(self):
        text = serialize_lstm(lstm_init(seed=0, hidden_size=2, output_len=1))
        with pytest.raises(ParseError, match="dense"):
            deserialize_network(text)

    def test_missing_field_rejected(self):
        doc = json.loads(serialize_network(xavier_init([2, 1], seed=0)))
        del doc["biases"]
        with pytest.raises(ParseError, match="biases"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, text",
        [("activations", ["tanh", "tanh"], "activations must be 'relu' or 'identity'"),
         ("dropout_rate", 1.5, "dropout_rate must lie in"),
         ("layer_dims", [4, 0, 1], "layer_dims needs")],
    )
    def test_unrunnable_architecture_rejected(self, field, value, text):
        doc = json.loads(serialize_network(xavier_init([4, 3, 1], seed=0)))
        doc[field] = value
        with pytest.raises(ParseError, match=f"dense document: {text}"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, number):
        text = serialize_network(xavier_init([2, 1], seed=0)).replace('"dropout_rate": 0.2',
                                                                      f'"dropout_rate": {number}')
        with pytest.raises(ParseError, match=number):
            deserialize_network(text)

    def test_unsupported_version_rejected(self):
        doc = json.loads(serialize_network(xavier_init([2, 1], seed=0)))
        doc["schema_version"] = 99
        with pytest.raises(ParseError, match="schema_version"):
            loads(json.dumps(doc), "dense")


class TestLstmRoundTrip:
    def test_production_model_bit_exact(self):
        model = lstm_init(seed=321)
        restored = deserialize_lstm(serialize_lstm(model))
        assert restored.hidden_size == model.hidden_size
        assert restored.output_len == model.output_len
        assert restored.lookback == model.lookback
        assert restored.input_dropout_rate == model.input_dropout_rate
        np.testing.assert_array_equal(model.params, restored.params)

    def test_field_names_and_order(self):
        doc = json.loads(serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2)))
        assert list(doc) == [
            "schema_version", "kind", "hidden_size", "input_size", "output_len",
            "lookback", "input_dropout_rate",
            "w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
            "w_o", "u_o", "b_o", "w_g", "u_g", "b_g",
            "head_w", "head_b",
        ]

    def test_per_gate_document_predicts_like_reference(self):
        hidden, out = 3, 2
        rng = np.random.default_rng(99)
        gates = {
            gate: (rng.normal(size=(hidden, 1)), rng.normal(size=(hidden, hidden)),
                   rng.normal(size=hidden))
            for gate in "ifog"
        }
        head_w, head_b = rng.normal(size=(out, hidden)), rng.normal(size=out)
        doc = {"schema_version": 1, "kind": "lstm", "hidden_size": hidden,
               "input_size": 1, "output_len": out, "lookback": 4,
               "input_dropout_rate": 0.0}
        for gate, (w, u, b) in gates.items():
            doc.update({f"w_{gate}": w.ravel().tolist(), f"u_{gate}": u.ravel().tolist(),
                        f"b_{gate}": b.tolist()})
        doc.update(head_w=head_w.ravel().tolist(), head_b=head_b.tolist())
        model = deserialize_lstm(json.dumps(doc))

        per_gate = SimpleNamespace(gate=gates.__getitem__)
        window = rng.normal(size=(4, 1))
        h, c = np.zeros((hidden, 1)), np.zeros((hidden, 1))
        for value in window:
            h, c = reference_cell(per_gate, value[:, None], h, c)
        pred, _ = lstm_forward(model, window)
        np.testing.assert_allclose(pred, head_w @ h + head_b[:, None], rtol=1e-12, atol=1e-12)

    def test_gate_length_validation(self):
        doc = json.loads(serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2)))
        doc["u_f"] = doc["u_f"][:-2]
        with pytest.raises(ParseError, match="u_f"):
            deserialize_lstm(json.dumps(doc))

    def test_multivariate_input_rejected(self):
        doc = json.loads(serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2)))
        doc["input_size"] = 2
        doc["w_i"] = doc["w_f"] = doc["w_o"] = doc["w_g"] = [0.0] * 6
        with pytest.raises(ParseError, match="input_size must be 1, got 2"):
            deserialize_lstm(json.dumps(doc))

    def test_missing_lookback_rejected(self):
        doc = json.loads(serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2)))
        del doc["lookback"]
        with pytest.raises(ParseError, match="'lookback'"):
            deserialize_lstm(json.dumps(doc))


class TestSmallDocuments:
    def test_scalers_round_trip(self):
        scaler = fit_scaler(np.arange(24.0).reshape(8, 3))
        doc = scalers_to_document(scaler, ("a", "b", "c"), log_offset=1.0)
        restored, names, offset = scalers_from_document(doc)
        assert names == ["a", "b", "c"]
        assert offset == 1.0
        assert restored.n_fit_rows == 8
        np.testing.assert_array_equal(restored.mean, scaler.mean)
        np.testing.assert_array_equal(restored.std, scaler.std)

    def test_linear_round_trip(self):
        model = LinearModel(slope=0.1537, intercept=1.91)
        assert linear_from_document(linear_to_document(model)) == model

    def test_offsets_round_trip(self):
        offsets = {"west": OffsetK(5.5, 6.25), "east": OffsetK(4.0, 5.0)}
        restored = offsets_from_document(offsets_to_document(offsets))
        assert restored == offsets


def _scalers_doc():
    scaler = fit_scaler(np.arange(24.0).reshape(8, 3))
    return json.loads(scalers_to_document(scaler, ("a", "b", "c"), log_offset=1.0))


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# One reader per document kind: (read, a valid document).
READERS = {
    "dense": (lambda doc: deserialize_network(json.dumps(doc)),
              lambda: json.loads(serialize_network(xavier_init([4, 3, 1], seed=0)))),
    "lstm": (lambda doc: deserialize_lstm(json.dumps(doc)),
             lambda: json.loads(serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2)))),
    "scalers": (lambda doc: scalers_from_document(json.dumps(doc)), _scalers_doc),
    "linear": (lambda doc: linear_from_document(json.dumps(doc)),
               lambda: json.loads(linear_to_document(LinearModel(0.15, 1.9)))),
    "offsets": (lambda doc: offsets_from_document(json.dumps(doc)),
                lambda: json.loads(offsets_to_document({"west": OffsetK(5.5, 6.25)}))),
}


class TestWrongTypes:
    """A field of the wrong JSON type is a ParseError naming the field,
    never a TypeError or a silent conversion."""

    @pytest.mark.parametrize(
        "kind, path, value, field",
        [("dense", ["schema_version"], True, "schema_version"),
         ("dense", ["dropout_rate"], [0.2], "dropout_rate"),
         ("dense", ["layer_dims"], [4, "3", 1], "layer_dims"),
         ("dense", ["activations"], 5, "activations"),
         ("dense", ["weights"], 7, "weights"),
         ("dense", ["biases", 0], [0.0, None, 0.0], "biases[0]"),
         ("lstm", ["hidden_size"], 3.0, "hidden_size"),
         ("lstm", ["input_size"], True, "input_size"),
         ("lstm", ["head_b"], ["0.0", 0.0], "head_b"),
         ("scalers", ["n_fit_rows"], "8", "n_fit_rows"),
         ("scalers", ["mean"], [True, 1.0, 2.0], "mean"),
         ("scalers", ["feature_names"], 3, "feature_names"),
         ("linear", ["slope"], "0.15", "slope"),
         ("offsets", ["regions", "west", "k_min"], None, "k_min"),
         ("offsets", ["regions"], [1.0, 2.0], "regions"),
         ("offsets", ["regions", "west"], "k_min", "k_min")],
    )
    def test_wrong_type_rejected(self, kind, path, value, field):
        read, make = READERS[kind]
        doc = make()
        read(doc)  # the unaltered document is valid
        _set(doc, path, value)
        with pytest.raises(ParseError, match=re.escape(f"'{field}'")):
            read(doc)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_scaler_std_must_be_positive(self, std):
        doc = _scalers_doc()
        doc["std"][1] = std
        with pytest.raises(ParseError, match="'std'"):
            scalers_from_document(json.dumps(doc))

    def test_integer_beyond_float_range_rejected(self):
        text = serialize_lstm(lstm_init(seed=0, hidden_size=3, output_len=2))
        with pytest.raises(ParseError, match="non-finite"):
            deserialize_lstm(text.replace('"lookback": 20', '"lookback": 1' + "0" * 400))


class TestAtomicWrite:
    """``commit`` renames no artifact into place until every one is written."""

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old\n")

        def interrupted():
            yield "partial"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            commit({path: interrupted()})
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "artifact.csv"
        path.write_text("old\n")
        commit({path: csv_text(["a", "b"], [["x", "1.5"]])})
        assert path.read_bytes() == b"a,b\r\nx,1.5\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]

    def test_failed_second_artifact_replaces_neither(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.csv"
        first.write_text("old\n")

        def rows():
            yield ["x", "1.5"]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            commit({first: dumps({"new": True}), second: csv_text(["name", "value"], rows())})
        assert first.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["first.json"]

    def test_non_finite_number_names_the_file_and_writes_nothing(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = ([fmt(value)] for value in (1.5, float("-inf")))
        with pytest.raises(DataError) as caught:
            commit({path: csv_text(["value"], rows)})
        assert str(caught.value) == f"{path}: cannot write a non-finite number: -inf"
        assert list(tmp_path.iterdir()) == []

    def test_document_text_ends_in_one_newline(self, tmp_path):
        path = tmp_path / "sub" / "report.json"
        commit({path: dumps({"a": [1, 2.5]})})
        assert path.read_bytes() == b'{\n "a": [\n  1,\n  2.5\n ]\n}\n'
