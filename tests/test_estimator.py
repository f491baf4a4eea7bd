import re
import warnings

import numpy as np
import pytest

from han.data import SkeletonSequence
from han.errors import ConfigError, DataError, UsageError
from han.estimator import HANClassifier, as_label_array, as_sequence_list
from han.model import load_checkpoint, save_checkpoint

from conftest import NOT_REAL, TOY_PARTITION, not_real_frames

RS = np.random.RandomState(44)


def toy_xy(n_per_class=5, classes=3, t=6, joints=6):
    X, y = [], []
    for c in range(classes):
        axis = c % 3
        for _ in range(n_per_class):
            frames = np.zeros((t, joints, 3))
            frames[..., axis] = 0.6
            frames += np.linspace(0, 0.2 * c, t)[:, None, None]
            frames += RS.uniform(-0.05, 0.05, frames.shape)
            X.append(frames)
            # non-contiguous labels exercise the class mapping
            y.append(c * 10 + 1)
    return X, np.asarray(y)


def fast_estimator(**kw):
    defaults = dict(
        d_model=8, n_heads=2, d_head=4, dropout_rate=0.0, frames=4,
        partition=TOY_PARTITION, lr_init=0.01, batch_size=8, warmup_epochs=2,
        plateau_patience=4, max_decays=2, augment=False, seed=3,
    )
    defaults.update(kw)
    return HANClassifier(**defaults)


class TestParamsProtocol:
    def test_get_params_roundtrip(self):
        est = fast_estimator()
        params = est.get_params()
        clone = HANClassifier(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self_and_applies(self):
        est = fast_estimator()
        out = est.set_params(n_heads=4, lr_init=0.005)
        assert out is est
        assert est.n_heads == 4 and est.lr_init == 0.005

    def test_set_params_rejects_unknown(self):
        with pytest.raises(UsageError, match="unknown parameter"):
            fast_estimator().set_params(depth=3)

    def test_defaults_mirror_reported_settings(self):
        est = HANClassifier()
        assert est.d_model == 128 and est.n_heads == 8 and est.d_head == 32
        assert est.dropout_rate == 0.1 and est.batch_size == 32 and est.lr_init == 0.001


class TestFitPredict:
    def test_fit_learns_and_predicts_original_labels(self):
        X, y = toy_xy()
        est = fast_estimator(max_epochs=40)
        est.fit(X, y)
        assert set(est.classes_.tolist()) == {1, 11, 21}
        preds = est.predict(X)
        assert set(preds.tolist()) <= {1, 11, 21}
        assert est.score(X, y) >= 0.95

    def test_predict_proba_rows_sum_to_one(self):
        X, y = toy_xy(n_per_class=3)
        est = fast_estimator(max_epochs=3).fit(X, y)
        probs = est.predict_proba(X)
        assert probs.shape == (len(X), 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_unfitted_predict_raises(self):
        X, _ = toy_xy(n_per_class=1)
        with pytest.raises(UsageError, match="not fitted"):
            fast_estimator().predict(X)

    def test_variable_length_sequences_accepted(self):
        X, y = toy_xy(n_per_class=3)
        X[0] = X[0][:3]
        X[4] = np.concatenate([X[4], X[4]], axis=0)
        est = fast_estimator(max_epochs=2).fit(X, y)
        assert est.predict(X).shape == (len(X),)

    def test_single_class_rejected(self):
        X, _ = toy_xy(n_per_class=3, classes=1)
        with pytest.raises(UsageError):
            fast_estimator().fit(X, np.zeros(len(X), dtype=int))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match=r"HANClassifier got unexpected keyword arguments \['bogus'\]"):
            HANClassifier(bogus=1)

    @pytest.mark.parametrize("name, value", [("seed", -1), ("max_epochs", 0)])
    def test_out_of_range_schedule_rejected(self, name, value):
        X, y = toy_xy(n_per_class=2)
        with pytest.raises(ConfigError, match=f"{name} must be >= "):
            fast_estimator(**{name: value}).fit(X, y)

    @pytest.mark.parametrize("params, message", [({"d_model": 4097}, r"d_model must be in \[1, 4096\]"),
                                                 ({"n_heads": 64, "d_head": 65}, r"n_heads\*d_head must be in")])
    def test_attention_width_beyond_bound_rejected(self, params, message):
        X, y = toy_xy(n_per_class=2)
        with pytest.raises(ConfigError, match=message):
            fast_estimator(**params).fit(X, y)


class TestInputValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(UsageError):
            fast_estimator().fit([np.zeros((4, 6))], np.array([0]))

    def test_non_finite_rejected(self):
        frames = np.zeros((4, 6, 3))
        frames[0, 0, 0] = np.nan
        with pytest.raises(UsageError, match="non-finite"):
            fast_estimator().fit([frames, np.zeros((4, 6, 3))], np.array([0, 1]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_coordinates_that_are_not_real_numbers_rejected(self, kind):
        X = [np.zeros((4, 6, 3)), not_real_frames((4, 6, 3))[kind]]
        with pytest.raises(UsageError, match=r"^X\[1\]: sequence frames must be real numbers, got dtype "):
            fast_estimator().fit(X, np.array([0, 1]))

    def test_mismatched_joint_counts_rejected(self):
        with pytest.raises(UsageError, match="joint count"):
            fast_estimator().fit([np.zeros((4, 6, 3)), np.zeros((4, 7, 3))], np.array([0, 1]))

    def test_label_length_mismatch(self):
        with pytest.raises(UsageError):
            fast_estimator().fit([np.zeros((4, 6, 3))], np.array([0, 1]))

    def test_x_neither_list_nor_array_rejected(self):
        with pytest.raises(UsageError, match=r"X must be a list of \(T, J, 3\) arrays or a single \(n, T, J, 3\)"):
            fast_estimator().fit(np.zeros((4, 6, 3)), np.array([0]))

    def test_empty_x_rejected(self):
        with pytest.raises(UsageError, match="X is empty"):
            fast_estimator().fit([], np.array([], dtype=int))

    @pytest.mark.parametrize("y", [["a", "b"] * 3, [None, 1] * 3], ids=["text", "none"])
    def test_labels_that_are_not_numbers(self, y):
        X, labels = toy_xy(n_per_class=2)
        with pytest.raises(UsageError, match="y must contain integer class labels"):
            fast_estimator().fit(X, y)
        est = fast_estimator(max_epochs=1).fit(X, labels)
        with pytest.raises(UsageError, match="y must contain integer class labels"):
            est.score(X, y)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300], ids=["inf", "nan", "beyond-int64"])
    def test_non_finite_or_huge_float_labels_fail_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="y must contain integer class labels"):
                as_label_array(np.array([bad, 1.0]), 2)

    def test_fractional_labels_rejected(self):
        X, y = toy_xy(n_per_class=2)
        with pytest.raises(UsageError, match="y must contain integer class labels"):
            fast_estimator().fit(X, y + 0.5)

    def test_whole_number_float_labels_accepted(self):
        X, y = toy_xy(n_per_class=2)
        est = fast_estimator(max_epochs=1).fit(X, y.astype(np.float64))
        assert est.classes_.dtype == np.int64 and est.classes_.tolist() == [1, 11, 21]
        assert est.predict(X).dtype == np.int64

    def test_predict_with_another_joint_count_rejected(self):
        X, y = toy_xy(n_per_class=2)
        est = fast_estimator(max_epochs=1).fit(X, y)
        with pytest.raises(UsageError, match="expected 6 joints, got 7"):
            est.predict([np.zeros((4, 7, 3))])

    def test_one_4d_array_is_the_list_of_its_rows(self):
        X, y = toy_xy(n_per_class=2)
        est = fast_estimator(max_epochs=1).fit(np.stack(X), y)
        assert len(est.history_) == 1
        assert np.array_equal(est.predict_proba(np.stack(X)), est.predict_proba(X))


class TestIntegerParameters:
    """An integer parameter is checked where its config is built, so a
    fraction or a bool fails in `fit` with a ConfigError naming it."""

    @pytest.mark.parametrize("name, value", [("frames", 2.5), ("batch_size", 2.5), ("seed", 1.5),
                                             ("n_heads", True), ("max_epochs", 1.0), ("d_model", "8")])
    def test_non_integer_rejected_naming_the_field(self, name, value):
        X, y = toy_xy(n_per_class=2)
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            fast_estimator(**{name: value}).fit(X, y)

    def test_numpy_integers_are_stored_as_int(self, tmp_path):
        X, y = toy_xy(n_per_class=2)
        est = fast_estimator(frames=np.int64(4), batch_size=np.int32(8), seed=np.int64(3),
                             max_epochs=np.int64(1), d_model=np.int16(8)).fit(X, y)
        config = est.model_.config
        assert type(config.frames) is int and type(config.attention.d_model) is int
        assert len(est.history_) == 1
        save_checkpoint(est.model_, str(tmp_path / "m.ckpt"))  # the config echo is plain JSON
        assert load_checkpoint(str(tmp_path / "m.ckpt")).config == config


class TestScalarParameters:
    """A float, bool or partition parameter is checked where its config is built,
    so a value of the wrong kind or a float that is not finite fails in `fit`
    with a ConfigError naming it."""

    @pytest.mark.parametrize("name, value, message", [
        ("lr_init", "0.1", "lr_init must be a finite number, got '0.1'"),
        ("lr_init", np.nan, "lr_init must be a finite number, got nan"),
        ("decay_factor", "10", "decay_factor must be a finite number, got '10'"),
        ("dropout_rate", True, "dropout_rate must be a finite number, got True"),
        ("partition", 5, "partition must be a name, a file path or a HandPartition, got 5"),
        ("partition", None, "partition must be a name, a file path or a HandPartition, got None"),
        ("pe_j", "no", "pe_j must be a bool, got 'no'"),
        ("share_t_att", None, "share_t_att must be a bool, got None"),
    ], ids=["lr-text", "lr-nan", "decay-text", "dropout-bool", "partition-int", "partition-none", "pe_j-text",
            "share-none"])
    def test_rejected_naming_the_field(self, name, value, message):
        X, y = toy_xy(n_per_class=2)
        with pytest.raises(ConfigError, match=re.escape(message)):
            fast_estimator(**{name: value}).fit(X, y)

    def test_numpy_scalars_and_integers_are_stored_as_python_types(self):
        X, y = toy_xy(n_per_class=2)
        est = fast_estimator(dropout_rate=0, lr_init=np.float32(0.01), pe_j=np.False_, max_epochs=1).fit(X, y)
        config = est.model_.config
        assert type(config.attention.dropout_rate) is float and config.pe_j is False


class TestPredictUsesFittedGeometry:
    def test_frames_changed_after_fit(self):
        X, y = toy_xy(n_per_class=3)
        est = fast_estimator(max_epochs=2).fit(X, y)
        before = est.predict_proba(X)
        est.set_params(frames=5)
        assert np.array_equal(est.predict_proba(X), before)


class TestPredictNonFinite:
    """A row whose forward overflows has probabilities that are not finite:
    `predict_proba` returns it, `predict` and `score` raise naming it."""

    @staticmethod
    def fitted():
        X, y = toy_xy(n_per_class=2)
        return fast_estimator(max_epochs=1).fit(X, y), X, y

    def test_float32_max_joint_weights(self):
        est, X, y = self.fitted()
        est.model_.joint_w.data[:] = np.finfo(np.float32).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as a non-finite row
            probs = est.predict_proba(X)
            assert not np.isfinite(probs[0]).all()
            with pytest.raises(DataError, match=r"X\[0\].*not finite"):
                est.predict(X)
            with pytest.raises(DataError, match=r"X\[0\]"):
                est.score(X, y)

    def test_names_the_first_overflowing_row(self):
        est, X, _ = self.fitted()
        X = [X[0], X[1], X[2] * 1e30, X[3] * 1e30]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = est.predict_proba(X)
            assert np.isfinite(probs[:2]).all() and not np.isfinite(probs[2]).all()
            with pytest.raises(DataError, match=r"X\[2\]"):
                est.predict(X)


class TestValidatesOnce:
    def test_sequences_are_the_callers_own(self):
        seq = SkeletonSequence(frames=np.zeros((4, 6, 3)), label=7)
        got = as_sequence_list([seq, np.ones((3, 6, 3))])
        assert [s.label for s in got] == [0, 0] and got[0] is not seq and seq.label == 7
        assert np.array_equal(got[1].frames, np.ones((3, 6, 3)))
