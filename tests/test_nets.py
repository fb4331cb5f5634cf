import io
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from llql.nets import (
    Adam,
    Grads,
    HeadBank,
    Mlp,
    ModelFileError,
    NonFiniteGradientError,
    Normalizer,
    load_model,
    save_model,
    soft_update,
)


def make_net(sizes, seed=0, dtype=np.float64):
    return Mlp.create(sizes, np.random.default_rng(seed), dtype)


# A plain numpy MLP on a net's (or a head's) weight and bias views, in the
# net's dtype: one 2-D matmul per layer, the reference the network engine is
# checked against, bit for bit.


def ref_forward(net, X) -> list:
    """Every layer's output on the batch `X`, the input first."""
    acts = [np.asarray(X, dtype=net.dtype)]
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = acts[-1] @ W + b
        acts.append(np.maximum(a, 0.0) if i < len(net.weights) - 1 else a)
    return acts


def ref_backward(net, X, G) -> tuple:
    """(parameter gradient in model-file order, input gradient) of the
    outputs on the batch `X` contracted with `G`; ReLU's subgradient at 0 is 0."""
    acts = ref_forward(net, X)
    g = np.asarray(G, dtype=net.dtype)
    parts = []
    for i in range(len(net.weights) - 1, -1, -1):
        parts = [acts[i].T @ g, g.sum(axis=0)] + parts
        g = g @ net.weights[i].T
        if i:
            g = g * (acts[i] > 0)
    return np.concatenate([p.reshape(-1) for p in parts]), g


def own_backward(net, X, G) -> tuple:
    """(Grads, input gradient) from the net's own cached passes."""
    _, acts = net.forward_cached(X)
    return net.backward_cached(acts, G), net.input_gradient(acts, G)


def test_forward_zero_parameters_gives_zero():
    net = make_net((3, 4, 2))
    net.flat_params[:] = 0.0
    assert np.array_equal(net.forward(np.array([1.0, -2.0, 3.0])), np.zeros(2))


def test_forward_identity_single_layer():
    net = make_net((3, 3))
    net.weights[0][...] = np.eye(3)
    net.biases[0][...] = 0.0
    x = np.array([0.5, -1.5, 2.0])
    assert np.array_equal(net.forward(x), x)


def test_forward_hand_computed_2_2_1():
    net = make_net((2, 2, 1))
    net.weights[0][...] = np.array([[1.0, -1.0], [2.0, 0.5]])
    net.biases[0][...] = np.array([0.5, -1.0])
    net.weights[1][...] = np.array([[2.0], [-1.0]])
    net.biases[1][...] = np.array([0.25])
    # hidden pre = [1+4+0.5, -1+1-1] = [5.5, -1]; relu -> [5.5, 0]
    # out = 5.5*2 + 0*(-1) + 0.25 = 11.25
    assert net.forward(np.array([1.0, 2.0]))[0] == pytest.approx(11.25, abs=1e-12)


def test_forward_batch_matches_single():
    net = make_net((3, 8, 2), seed=4)
    X = np.random.default_rng(1).standard_normal((5, 3))
    batch = net.forward(X)
    for i in range(5):
        assert np.allclose(batch[i], net.forward(X[i]), atol=1e-12)


def test_forward_dimension_mismatch():
    net = make_net((3, 4, 2))
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))


def test_backward_zero_output_gradient():
    net = make_net((3, 5, 2), seed=1)
    grads, gin = own_backward(net, np.ones((1, 3)), np.zeros((1, 2)))
    assert not grads.flat.any()
    assert not gin.any()


def test_backward_linear_net():
    net = make_net((1, 1))
    net.weights[0][...] = 4.0
    net.biases[0][...] = 1.0
    grads, gin = own_backward(net, np.array([[3.0]]), np.array([[1.0]]))
    assert grads.weights[0][0, 0] == 3.0  # dy/dw = x
    assert grads.biases[0][0] == 1.0      # dy/db = 1
    assert gin[0, 0] == 4.0               # dy/dx = w


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(10):
        sizes = (rng.integers(1, 4), rng.integers(2, 6), rng.integers(1, 4))
        net = Mlp.create(sizes, rng)
        x = rng.standard_normal((1, sizes[0]))
        gout = rng.standard_normal((1, sizes[-1]))
        ref, ref_gin = ref_backward(net, x, gout)
        grads, gin = own_backward(net, x, gout)
        assert np.array_equal(grads.flat, ref) and np.array_equal(gin, ref_gin)

        def objective():
            return float(ref_forward(net, x)[-1][0] @ gout[0])

        eps = 1e-5
        for values, analytic in ((net.flat_params, ref), (x[0], ref_gin[0])):
            for i in range(values.size):
                keep = values[i]
                values[i] = keep + eps
                up = objective()
                values[i] = keep - eps
                down = objective()
                values[i] = keep
                numeric = (up - down) / (2 * eps)
                assert abs(numeric - analytic[i]) <= 1e-4 * max(abs(numeric), 1e-8) + 1e-9


def test_relu_subgradient_at_zero_is_zero():
    net = make_net((1, 1, 1))
    net.weights[0][...] = 1.0
    net.biases[0][...] = 0.0
    net.weights[1][...] = 1.0
    net.biases[1][...] = 0.0
    grads, gin = own_backward(net, np.array([[0.0]]), np.array([[1.0]]))  # hidden pre-activation exactly 0
    assert grads.weights[0][0, 0] == 0.0
    assert gin[0, 0] == 0.0


def test_adam_zero_gradient_fixed_point():
    net = make_net((2, 3, 1), seed=2)
    before = net.flat_params.copy()
    adam = Adam(net, lr=0.1)
    adam.step(net, Grads(net.layer_sizes, net.dtype, np.zeros(net.n_params)))
    assert np.array_equal(net.flat_params, before)
    assert adam.t == 1


def test_adam_descends_against_gradient_sign():
    net = make_net((1, 1))
    net.flat_params[:] = [1.0, 0.0]
    adam = Adam(net, lr=0.01)
    g = Grads(net.layer_sizes, net.dtype)
    g.flat[:] = [5.0, 0.0]  # positive gradient -> parameter must decrease
    adam.step(net, g)
    assert net.weights[0][0, 0] < 1.0


def test_adam_converges_toward_quadratic_minimum():
    net = make_net((1, 1))
    net.flat_params[:] = [0.0, 0.0]
    adam = Adam(net, lr=0.1)
    w_prev = 0.0
    for _ in range(10):
        w = float(net.weights[0][0, 0])
        g = Grads(net.layer_sizes, net.dtype)
        g.flat[:] = [2.0 * (w - 3.0), 0.0]
        adam.step(net, g)
        w_new = float(net.weights[0][0, 0])
        assert w_new > w_prev  # strictly increases toward 3
        w_prev = w_new
    assert 0.0 < w_prev < 3.0


def test_adam_learning_rate_schedule():
    net = make_net((1, 1))
    adam = Adam(net, lr=1e-3, lr_after=1e-4, switch_step=3)
    g = Grads(net.layer_sizes, net.dtype)
    g.flat[:] = 1.0
    rates = []
    for _ in range(5):
        rates.append(adam.current_lr)
        adam.step(net, g)
    assert rates == [1e-3, 1e-3, 1e-3, 1e-4, 1e-4]


def test_adam_rejects_non_finite_gradients():
    net = make_net((2, 2), seed=3)
    before = net.flat_params.copy()
    adam = Adam(net, lr=0.1)
    g = Grads(net.layer_sizes, net.dtype)
    g.flat[:] = np.nan
    with pytest.raises(NonFiniteGradientError, match="short-term"):
        adam.step(net, g, context="short-term loss")
    assert np.array_equal(net.flat_params, before)
    assert adam.t == 0


def test_adam_accepts_large_finite_float32_gradients():
    # the entries sum past the float32 range, yet every one is finite
    net = make_net((2, 1), seed=3, dtype=np.float32)
    adam = Adam(net, lr=0.1)
    g = Grads(net.layer_sizes, net.dtype)
    g.flat[:] = [3e38, 3e38, 0.0]
    with np.errstate(over="ignore"):  # the squared-gradient moment overflows to inf
        adam.step(net, g)
    assert adam.t == 1
    assert np.all(np.isfinite(net.flat_params))


def test_soft_update_endpoints_and_blend():
    src = make_net((2, 3, 1), seed=5)
    tgt = make_net((2, 3, 1), seed=6)
    t0 = tgt.flat_params.copy()

    soft_update(tgt, src, 0.0)
    assert np.allclose(tgt.flat_params, t0)

    soft_update(tgt, src, 1.0)
    assert np.allclose(tgt.flat_params, src.flat_params)

    a = make_net((1, 1))
    b = make_net((1, 1))
    a.flat_params[:] = 2.0
    b.flat_params[:] = 4.0
    soft_update(a, b, 0.25)
    assert np.allclose(a.flat_params, 2.5)


def test_soft_update_contraction():
    src = make_net((2, 4, 2), seed=7)
    tgt = make_net((2, 4, 2), seed=8)
    tau = 0.05
    gap0 = np.linalg.norm(tgt.flat_params - src.flat_params)
    for n in range(1, 30):
        soft_update(tgt, src, tau)
        gap = np.linalg.norm(tgt.flat_params - src.flat_params)
        assert abs(gap - (1 - tau) ** n * gap0) < 1e-9


def test_soft_update_architecture_mismatch():
    with pytest.raises(ValueError):
        soft_update(make_net((2, 3, 1)), make_net((2, 4, 1)), 0.5)


def test_normalizer_two_point():
    n = Normalizer.fit(np.array([[0.0], [2.0]]))
    assert n.mean[0] == 1.0
    assert n.std[0] == 1.0
    assert n.normalize(np.array([0.0]))[0] == -1.0


def test_normalizer_constant_samples_floored():
    n = Normalizer.fit(np.full((10, 2), 3.5))
    assert np.all(n.std == Normalizer.STD_FLOOR)
    assert np.array_equal(n.normalize(np.full(2, 3.5)), np.zeros(2))


def test_normalizer_hand_stats():
    n = Normalizer.fit(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert n.mean[0] == pytest.approx(2.5)
    assert n.std[0] == pytest.approx(1.118033988749895)
    assert n.normalize(np.array([4.0]))[0] == pytest.approx(1.3416407864998738)


def test_normalizer_output_statistics():
    rng = np.random.default_rng(9)
    samples = rng.normal(3.0, 2.5, size=(500, 3))
    n = Normalizer.fit(samples)
    z = n.normalize(samples)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)


def test_normalizer_requires_two_samples():
    with pytest.raises(ValueError):
        Normalizer.fit(np.array([[1.0]]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_model_file_round_trip_bitwise(tmp_path, dtype):
    net = make_net((3, 6, 2), seed=11, dtype=dtype)
    norm = Normalizer(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 0.5]))
    path = tmp_path / "net.model"
    save_model(path, {"net": net}, norm, {"env": "test", "delta": 0.001})
    mf = load_model(path)
    loaded = mf.nets["net"]
    assert loaded.dtype == dtype
    assert np.array_equal(loaded.flat_params, net.flat_params)
    x = np.random.default_rng(0).standard_normal(3)
    assert np.array_equal(loaded.forward(x), net.forward(x))
    assert np.array_equal(mf.normalizer.mean, norm.mean)
    assert mf.meta["delta"] == 0.001


def test_model_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bogus.model"
    path.write_bytes(b"\x05\x00\x00\x00\x00\x00\x00\x00{...}")
    with pytest.raises(ModelFileError):
        load_model(path)
    header = json.dumps({"format": "other-v1", "nets": [], "normalizer": None, "meta": {}}).encode()
    path.write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(ModelFileError, match="not a llql-model-v1 file"):
        load_model(path)


def saved_model(tmp_path):
    path = tmp_path / "net.model"
    save_model(path, {"net": make_net((3, 6, 2), seed=11)}, None, {"env": "test"})
    return path, path.read_bytes()


@pytest.mark.parametrize("damage", ["blob_cut", "blob_padded", "header_cut", "length_cut"])
def test_model_file_rejects_truncated_or_padded_files(tmp_path, damage):
    path, data = saved_model(tmp_path)
    (header_len,) = struct.unpack("<Q", data[:8])
    damaged = {
        "blob_cut": data[:-100],
        "blob_padded": data + bytes(8),
        "header_cut": data[: 8 + header_len // 2],
        "length_cut": data[:5],
    }[damage]
    path.write_bytes(damaged)
    with pytest.raises(ModelFileError):
        load_model(path)


def write_with_header(path, header: dict, blob: bytes = b"") -> None:
    data = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(data)) + data + blob)


GOOD_ENTRY = {"name": "net", "layer_sizes": [3, 6, 2], "dtype": "float64"}


@pytest.mark.parametrize(
    "header",
    [
        {},
        {"nets": [GOOD_ENTRY], "normalizer": None},
        {"nets": [GOOD_ENTRY], "meta": {}},
        {"nets": [GOOD_ENTRY], "normalizer": None, "meta": []},
        {"nets": 5, "normalizer": None, "meta": {}},
        {"nets": ["net"], "normalizer": None, "meta": {}},
        {"nets": [{"name": "net", "dtype": "float64"}], "normalizer": None, "meta": {}},
        {"nets": [{"name": "net", "layer_sizes": [3, 6, 2]}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "layer_sizes": [3]}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "layer_sizes": [3, "6", 2]}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "layer_sizes": [3, 0, 2]}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "layer_sizes": 32}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "dtype": "int32"}], "normalizer": None, "meta": {}},
        {"nets": [{**GOOD_ENTRY, "dtype": "no-such-type"}], "normalizer": None, "meta": {}},
        {"nets": [GOOD_ENTRY], "normalizer": {"mean": [0.0, 0.0, 0.0]}, "meta": {}},
        {"nets": [GOOD_ENTRY, GOOD_ENTRY], "normalizer": None, "meta": {}},
    ],
)
def test_model_file_rejects_malformed_headers(tmp_path, header):
    """A file with the right format tag but a malformed header is a model
    file error, whatever part of the header is wrong."""
    path = tmp_path / "bad.model"
    write_with_header(path, {"format": "llql-model-v1", **header}, bytes(8 * 32))
    with pytest.raises(ModelFileError, match="malformed model header"):
        load_model(path)


def test_model_file_rejects_nonfinite_parameters(tmp_path):
    path, data = saved_model(tmp_path)
    path.write_bytes(data[:-8] + struct.pack("<d", np.nan))
    with pytest.raises(ModelFileError, match="finite"):
        load_model(path)


def test_model_file_blob_is_checked_before_it_is_read(tmp_path):
    # a header that lists a 1e12-parameter net is rejected by the file size
    # alone, before any buffer for it is allocated
    path = tmp_path / "huge.model"
    write_with_header(path, {"format": "llql-model-v1", "normalizer": None, "meta": {},
                             "nets": [{**GOOD_ENTRY, "layer_sizes": [1_000_000, 1_000_000]}]})
    with pytest.raises(ModelFileError, match="parameter blob holds 0 bytes"):
        load_model(path)


def test_loading_a_default_model_allocates_less_than_its_file(tmp_path):
    """The blob is read one network at a time into one reused float64
    buffer, so loading the five float32 200x200 heads of a mountain-car
    model peaks below the file's size: the float32 nets plus one float64
    copy of the largest."""
    rng = np.random.default_rng(0)
    sizes = {"f": 2, "g": 2, "v": 1, "h": 1, "d": 1}
    nets = {name: Mlp.create((2, 200, 200, out), rng, np.float32) for name, out in sizes.items()}
    path = tmp_path / "mc.model"
    save_model(path, nets, Normalizer.identity(2), {"env": "test"})
    load_model(path)  # warm up
    size = path.stat().st_size
    assert size > 1_600_000
    assert traced_peak(lambda: load_model(path)) < size


def whole_blob(nets) -> bytes:
    """The parameter blob as one concatenated float64 vector encodes it."""
    return np.concatenate([net.flat_params.astype(np.float64) for net in nets]).astype("<f8").tobytes()


def blob_of(path) -> bytes:
    data = path.read_bytes()
    return data[8 + struct.unpack("<Q", data[:8])[0] :]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["mlps", "bank_heads"])
def test_streamed_save_writes_the_whole_blob_encoding(tmp_path, dtype, kind):
    if kind == "mlps":
        nets = {"a": make_net((3, 6, 2), seed=1, dtype=dtype), "b": make_net((4, 1), seed=2, dtype=dtype)}
    else:
        nets = dict(zip("vhd", make_bank(seed=3, dtype=dtype).heads))
    path = tmp_path / "m.model"
    save_model(path, nets, Normalizer.identity(3), {"env": "test"})
    assert blob_of(path) == whole_blob(nets.values())
    assert [net.flat_params.dtype for net in load_model(path).nets.values()] == [np.dtype(dtype)] * len(nets)


def test_saving_allocates_at_most_one_layer_in_float64(tmp_path):
    """A save casts and writes one layer at a time: its peak above its
    inputs is the largest layer in float64 and the header, plus the file's
    write buffer and 1 KiB of Python objects."""
    rng = np.random.default_rng(0)
    bank = HeadBank.create(2, (200, 200), ((2,), (2, 1), (), (1,), (1, 1)), rng, np.float32)
    nets = dict(zip("fgvhd", bank.heads))
    path = tmp_path / "mc.model"
    save_model(path, nets, Normalizer.identity(2), {"env": "test"})  # warm up
    header_len = struct.unpack("<Q", path.read_bytes()[:8])[0]
    peak = traced_peak(lambda: save_model(path, nets, Normalizer.identity(2), {"env": "test"}))
    assert peak <= 200 * 200 * 8 + header_len + io.DEFAULT_BUFFER_SIZE + 1024


def test_load_model_reads_the_nets_a_bank_names_into_its_heads(tmp_path):
    bank = make_bank(seed=6, dtype=np.float32)
    other = make_net((3, 2), seed=7)
    path = tmp_path / "m.model"
    save_model(path, {"v": bank.heads[0], "own": other, "h": bank.heads[1], "d": bank.heads[2]}, None, {})
    mf = load_model(path, lambda mf: {("v", "h", "d"): SHAPES})
    loaded = mf.banks["v", "h", "d"]
    assert loaded.shapes == SHAPES and loaded.dtype == np.float32
    assert np.array_equal(loaded.flat_params, bank.flat_params)
    assert list(mf.nets) == ["v", "own", "h", "d"]
    assert all(mf.nets[name] is head for name, head in zip("vhd", loaded.heads))
    assert np.array_equal(mf.nets["own"].flat_params, other.flat_params)
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.forward(x), bank.forward(x)))


@pytest.mark.parametrize("banks, match", [
    ({("v", "x"): ((), (2,))}, "no net 'x'"),
    ({("v", "h"): ((), (3,))}, "cannot take the shape"),
    ({("v", "own"): ((), (2,))}, "equal input and hidden sizes"),
])
def test_load_model_rejects_a_bank_of_missing_or_misfit_nets(tmp_path, banks, match):
    bank = make_bank(seed=6)
    path = tmp_path / "m.model"
    save_model(path, {"v": bank.heads[0], "h": bank.heads[1], "own": make_net((3, 2), seed=7)}, None, {})
    with pytest.raises(ModelFileError, match=match):
        load_model(path, lambda mf: banks)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "float32_overflow"])
def test_load_model_rejects_a_bank_head_with_nonfinite_parameters(tmp_path, value):
    bank = make_bank(seed=6, dtype=np.float32)
    path = tmp_path / "m.model"
    save_model(path, dict(zip("vhd", bank.heads)), None, {})
    data = bytearray(path.read_bytes())
    data[-8:] = struct.pack("<d", value)  # the last bias of head d
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="net 'd': network parameters must be finite"):
        load_model(path, lambda mf: {("v", "h", "d"): SHAPES})


def test_failed_model_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path, data = saved_model(tmp_path)

    def no_space(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(OSError):
        save_model(path, {"net": make_net((3, 6, 2), seed=12)}, None, {})
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["net.model"]  # no temporary file left


def test_mlp_requires_finite_parameters():
    with pytest.raises(ValueError):
        Mlp((1, 1), np.array([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# Head banks
# ---------------------------------------------------------------------------

SHAPES = ((), (2,), (2, 2))


def make_bank(seed=0, dtype=np.float64):
    return HeadBank.create(3, (5, 4), SHAPES, np.random.default_rng(seed), dtype)


def head_indices(bank):
    """Each head's parameters as indices into the bank's flat vector, in the
    head's own (model-file) order, whatever the bank's layout."""
    saved = bank.flat_params.copy()
    bank.flat_params[...] = np.arange(bank.n_params)
    indices = [np.asarray(head.flat_params).astype(np.int64) for head in bank.heads]
    bank.flat_params[...] = saved
    return indices


def test_bank_heads_are_views_of_one_vector_initialized_like_separate_nets():
    bank = make_bank(seed=9, dtype=np.float32)
    rng = np.random.default_rng(9)
    nets = [Mlp.create((3, 5, 4, n), rng, np.float32) for n in (1, 2, 4)]
    assert bank.layer_sizes == tuple(net.layer_sizes for net in nets)
    assert bank.n_params == sum(net.n_params for net in nets)
    indices = head_indices(bank)
    assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(bank.n_params))
    for head, net, idx in zip(bank.heads, nets, indices):
        assert np.array_equal(head.flat_params, net.flat_params)
        assert np.array_equal(bank.flat_params[idx], net.flat_params)
    bank.heads[1].biases[-1][...] = 7.0
    assert np.count_nonzero(bank.flat_params == 7.0) == 2


def test_bank_forward_shapes_each_head_for_one_input_and_a_batch():
    bank = make_bank()
    X = np.random.default_rng(1).standard_normal((4, 3))
    v, h, d = bank.forward(X)
    assert (v.shape, h.shape, d.shape) == ((4,), (4, 2), (4, 2, 2))
    assert np.array_equal(d, ref_forward(bank.heads[2], X)[-1].reshape(4, 2, 2))
    v1, h1, d1 = bank.forward(X[0])
    assert (v1.shape, h1.shape, d1.shape) == ((), (2,), (2, 2))
    assert np.array_equal(d1, ref_forward(bank.heads[2], X[:1])[-1].reshape(2, 2))
    assert np.allclose(h1, h[0], atol=1e-12) and np.allclose(v1, v[0], atol=1e-12)
    assert v1.dtype == np.float64


def test_bank_backward_stacks_the_heads_gradients():
    bank = make_bank(seed=2)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3))
    outs, caches = bank.forward_cached(X)
    g_outs = [rng.standard_normal(out.shape) for out in outs]
    grads = bank.backward_cached(caches, g_outs)
    expected = [ref_backward(head, X, g.reshape(6, -1))[0] for head, g in zip(bank.heads, g_outs)]
    indices = head_indices(bank)
    assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(bank.n_params))
    for idx, flat in zip(indices, expected):
        assert np.array_equal(grads.flat[idx], flat)


def test_bank_takes_one_adam_step_and_one_soft_update():
    bank = make_bank(seed=4)
    target = bank.copy()
    adam = Adam(bank, lr=0.1)
    g = Grads(bank.layer_sizes, bank.dtype)
    g.flat[:] = 1.0
    adam.step(bank, g)
    assert np.all(bank.flat_params < target.flat_params)
    soft_update(target, bank, 1.0)
    assert np.array_equal(target.flat_params, bank.flat_params)
    with pytest.raises(ValueError):
        soft_update(target, HeadBank.create(3, (5,), SHAPES, np.random.default_rng(0)), 0.5)


def test_bank_rejects_a_head_that_cannot_take_its_shape():
    with pytest.raises(ValueError, match="shape"):
        HeadBank([(3, 1), (3, 3)], ((), (2,)), np.zeros(16))


def test_bank_rejects_heads_of_unequal_input_or_hidden_sizes():
    for sizes in ((3, 4, 2), (2, 5, 2), (3, 5, 5, 2)):
        with pytest.raises(ValueError, match="equal input and hidden sizes"):
            HeadBank([(3, 5, 1), sizes], ((), (2,)), None)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(5, 4), (6,), ()], ids=["hidden", "one_hidden", "no_hidden"])
@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_bank_results_equal_each_heads_own_results_bitwise(n, hidden, dtype):
    bank = HeadBank.create(3, hidden, SHAPES, np.random.default_rng(5), dtype)
    rng = np.random.default_rng(n)
    bank.flat_params[...] += rng.normal(0.0, 0.1, size=bank.n_params).astype(dtype)  # nonzero biases
    X = rng.standard_normal((n, 3))
    Xd = X.astype(dtype)
    outs = bank.forward(X)
    cached, caches = bank.forward_cached(Xd)
    g_outs = [rng.standard_normal(out.shape).astype(dtype) for out in cached]
    for head, shape, out, got in zip(bank.heads, SHAPES, outs, cached):
        expected = ref_forward(head, Xd)[-1].reshape((n,) + shape)
        assert got.dtype == dtype and np.array_equal(got, expected)
        assert out.dtype == np.float64 and np.array_equal(out, expected.astype(np.float64))
    grads = bank.backward_cached(caches, g_outs)
    for head, g, idx in zip(bank.heads, g_outs, head_indices(bank)):
        assert np.array_equal(grads.flat[idx], ref_backward(head, Xd, g.reshape(n, -1))[0])
    if n == 1:
        for out, one in zip(outs, bank.forward(X[0])):
            assert np.array_equal(one, out[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(40, 30), (50,), ()], ids=["two_hidden", "one_hidden", "no_hidden"])
@pytest.mark.parametrize("shapes", [SHAPES, ((2,), (2, 1))], ids=["three_heads", "two_heads"])
@pytest.mark.parametrize("R", [1, 2, 3, 10])
def test_rows_of_one_row_batches_equal_one_input_forwards_bitwise(R, shapes, hidden, dtype):
    # R inputs as (R, 1, in) are R one-row batches: each runs the GEMV one
    # input runs, where a batch (R, in) runs a GEMM whose rows may differ
    bank = HeadBank.create(3, hidden, shapes, np.random.default_rng(9), dtype)
    rng = np.random.default_rng(R)
    bank.flat_params[...] += rng.normal(0.0, 0.1, size=bank.n_params).astype(dtype)
    X = rng.standard_normal((R, 3))
    bank.forward(rng.standard_normal((7, 3)))  # a larger batch first: the workspaces are reused
    rows = bank.forward(X[:, None, :])
    for out, shape in zip(rows, shapes):
        assert out.shape == (R, 1) + shape
    for j in range(R):
        for out, one in zip(rows, bank.forward(X[j])):
            assert np.array_equal(out[j, 0], one)
    net = bank.heads[1]
    assert np.array_equal(net.forward(X[:, None, :])[:, 0], np.array([net.forward(x) for x in X]))


def test_bank_workspaces_follow_the_batch_size_up_and_down():
    bank = HeadBank.create(3, (5, 4), SHAPES, np.random.default_rng(6), np.float32)
    bank.flat_params[...] += np.random.default_rng(7).normal(0.0, 0.1, size=bank.n_params).astype(np.float32)
    indices = head_indices(bank)
    rng = np.random.default_rng(8)
    for n in (10, 1000, 1, 100, 1000, 3):
        X = rng.standard_normal((n, 3)).astype(np.float32)
        for head, shape, out in zip(bank.heads, SHAPES, bank.forward(X)):
            assert np.array_equal(out, ref_forward(head, X)[-1].astype(np.float64).reshape((n,) + shape))
        outs, caches = bank.forward_cached(X)
        g_outs = [rng.standard_normal(out.shape).astype(np.float32) for out in outs]
        grads = bank.backward_cached(caches, g_outs)
        for head, g, idx in zip(bank.heads, g_outs, indices):
            assert np.array_equal(grads.flat[idx], ref_backward(head, X, g.reshape(n, -1))[0])


def traced_peak(fn) -> int:
    """Peak bytes that `fn()` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bank_calls_allocate_no_batch_sized_block_after_a_warm_up():
    # one (2, 1000, 200) float32 activation would be 1.6 MB; the workspaces
    # the bank keeps across calls leave the outputs, the input cast and
    # numpy's fixed-size ufunc buffer for the broadcast bias add
    rng = np.random.default_rng(0)
    dyn = HeadBank.create(2, (200, 200), ((2,), (2, 1)), rng, np.float32)
    X = rng.standard_normal((1000, 2))
    dyn.forward(X)
    assert traced_peak(lambda: dyn.forward(X)) < 64 * 1024

    q = HeadBank.create(2, (200, 200), ((), (1,), (1, 1)), rng, np.float32)
    Xb = rng.standard_normal((100, 2)).astype(np.float32)
    outs, caches = q.forward_cached(Xb)
    g_outs = [rng.standard_normal(out.shape).astype(np.float32) for out in outs]
    q.backward_cached(caches, g_outs)

    def update():
        _, caches = q.forward_cached(Xb)
        q.backward_cached(caches, g_outs)

    assert traced_peak(update) < 64 * 1024


def test_mlp_pass_pair_allocates_no_layer_sized_block_after_a_warm_up():
    # a DDPG critic's update passes and an act: the caches and Grads are the
    # net's workspaces, so what is left is the outputs, the input gradient
    # and the input casts
    rng = np.random.default_rng(0)
    net = Mlp.create((3, 200, 200, 1), rng, np.float32)
    X = rng.standard_normal((8, 3)).astype(np.float32)
    G = rng.standard_normal((8, 1)).astype(np.float32)

    def passes():
        _, caches = net.forward_cached(X)
        net.backward_cached(caches, G)
        net.input_gradient(caches, G)
        net.forward(X[0])

    passes()
    assert traced_peak(passes) < 64 * 1024


def test_parameter_gradient_moment_and_workspace_vectors_start_on_a_cache_line(tmp_path):
    rng = np.random.default_rng(0)
    vectors = []
    for k in range(1, 9):
        # shift the heap by a few 16-byte steps between allocations
        shift = [np.empty(4 * k + j, dtype=np.float32) for j in range(k)]
        bank = HeadBank.create(3, (5, 4), SHAPES, rng, np.float32)
        net = make_net((3, 6, 2), seed=k, dtype=np.float32)
        save_model(tmp_path / f"{k}.model", {"net": net, "v": bank.heads[0], "h": bank.heads[1]})
        mf = load_model(tmp_path / f"{k}.model", lambda mf: {("v", "h"): SHAPES[:2]})
        opt = Adam(bank, 1e-3)
        outs, caches = bank.forward_cached(rng.standard_normal((k, 3)).astype(np.float32))
        grads = bank.backward_cached(caches, [np.ones_like(out) for out in outs])
        vectors += [bank.flat_params, bank.copy().flat_params, net.flat_params, net.copy().flat_params,
                    mf.nets["net"].flat_params, mf.banks["v", "h"].flat_params, grads.flat, opt.m, opt.v,
                    opt._buf, *bank._work.values()]
        del shift
    assert [v.ctypes.data % 64 for v in vectors] == [0] * len(vectors)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(5, 4), (6,), ()], ids=["hidden", "one_hidden", "no_hidden"])
@pytest.mark.parametrize("kind", ["bank", "mlp"])
def test_input_gradient_equals_the_reference_backward_bitwise(kind, hidden, dtype):
    rng = np.random.default_rng(12)
    if kind == "bank":
        model = HeadBank.create(3, hidden, SHAPES, rng, dtype)
    else:
        model = Mlp.create((3, *hidden, 1), rng, dtype)
    model.flat_params[...] += rng.normal(0.0, 0.1, size=model.n_params).astype(dtype)
    X = rng.standard_normal((7, 3)).astype(dtype)
    outs, caches = model.forward_cached(X)
    if kind == "bank":
        g = [rng.standard_normal(out.shape).astype(dtype) for out in outs]
        heads = [ref_backward(head, X, gk.reshape(7, -1)) for head, gk in zip(model.heads, g)]
    else:
        g = rng.standard_normal(outs.shape).astype(dtype)
        heads = [ref_backward(model, X, g)]
    grads = model.backward_cached(caches, g)
    indices = head_indices(model) if kind == "bank" else [np.arange(model.n_params)]
    assert all(np.array_equal(grads.flat[idx], part) for idx, (part, _) in zip(indices, heads))
    grads.flat[...] = 0.0
    gin = model.input_gradient(caches, g)
    assert gin.dtype == dtype and np.array_equal(gin, sum(ref_gin for _, ref_gin in heads))
    assert not grads.flat.any()  # no parameter gradient was computed


@pytest.mark.parametrize("hidden", [(5, 4), ()], ids=["hidden", "no_hidden"])
def test_bank_input_gradient_sums_the_heads_input_gradients(hidden):
    bank = HeadBank.create(3, hidden, SHAPES, np.random.default_rng(10), np.float32)
    rng = np.random.default_rng(11)
    bank.flat_params[...] += rng.normal(0.0, 0.1, size=bank.n_params).astype(np.float32)
    X = rng.standard_normal((6, 3)).astype(np.float32)
    outs, caches = bank.forward_cached(X)
    g_outs = [rng.standard_normal(out.shape).astype(np.float32) for out in outs]
    gin = bank.input_gradient(caches, g_outs)
    v, h, d = (ref_backward(head, X, g.reshape(6, -1))[1] for head, g in zip(bank.heads, g_outs))
    assert gin.dtype == np.float32 and np.array_equal(gin, v + h + d)
