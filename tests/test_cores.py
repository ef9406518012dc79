"""The thread owner: one helper thread, and BLAS held at one thread while it works."""

import sys
import threading

import numpy as np
import pytest

from helpers import make_dataset, random_roll
from ttvae import cores, evaluation
from ttvae.errors import NumericFailureError
from ttvae.vae import ModelConfig, TensionVae, network, sample_latent, train


def openblas():
    """numpy's OpenBLAS (get, set), or a skip where none is found."""
    with cores._lock:
        blas = cores._openblas()
    if not blas:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    return blas


@pytest.fixture
def two_blas_threads():
    """BLAS at two threads for the test, the count it had afterwards."""
    get, set_ = openblas()
    before = get()
    set_(2)
    yield get
    set_(before)


def small_dataset(rng, n=12):
    return make_dataset([random_roll(rng) for _ in range(n)],
                        rng.uniform(0, 2, (n, 64)), rng.uniform(0, 2, (n, 64)),
                        source_ids=[f"s{i}" for i in range(n)])


TINY = ModelConfig(latent_dim=4, hidden=12, gru_layers=1, batch_size=4,
                   max_epochs=1, early_stop_patience=5, rng_seed=11)


class TestBlasThreads:
    def test_held_at_one_inside_and_restored_after(self, two_blas_threads):
        get = two_blas_threads
        with cores.one_blas_thread():
            assert get() == 1
            with cores.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2

    def test_restored_after_an_error(self, two_blas_threads):
        with pytest.raises(KeyError):
            with cores.one_blas_thread():
                raise KeyError("inside")
        assert two_blas_threads() == 2

    def test_two_threads_pinning_at_once_keep_the_original(self, two_blas_threads):
        get = two_blas_threads
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with cores.one_blas_thread():
                first_in.set()
                second_in.wait(10)
            seen["after first left"] = get()
            first_out.set()

        def second():
            first_in.wait(10)
            with cores.one_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["second still inside"] = get()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"after first left": 1, "second still inside": 1}
        assert get() == 2

    def test_many_threads_entering_and_leaving(self, two_blas_threads):
        get = two_blas_threads
        wrong = []
        together = threading.Barrier(6)

        def churn():
            together.wait(10)
            for _ in range(200):
                with cores.one_blas_thread():
                    if get() != 1:
                        wrong.append(get())

        threads = [threading.Thread(target=churn) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert cores._pins == 0 and get() == 2

    def test_train_restores_the_count(self, two_blas_threads, rng, monkeypatch):
        get = two_blas_threads
        inside = []
        real = network._dense_grads

        def spy(*pairs):
            inside.append(get())
            return real(*pairs)

        monkeypatch.setattr(network, "_dense_grads", spy)
        train(small_dataset(rng), TINY)
        assert inside and set(inside) == {1}
        assert get() == 2

    def test_train_restores_the_count_on_numeric_failure(self, two_blas_threads, rng,
                                                         monkeypatch):
        def failing(*pairs):
            raise NumericFailureError("non-finite weight gradient", "test")

        monkeypatch.setattr(network, "_dense_grads", failing)
        with pytest.raises(NumericFailureError):
            train(small_dataset(rng), TINY)
        assert two_blas_threads() == 2

    def test_decode_restores_the_count(self, two_blas_threads, monkeypatch):
        get = two_blas_threads
        # 80 rows at hidden 128 are past the split rule, so the chunk is halved
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=128, gru_layers=1, rng_seed=2))
        z = sample_latent(80, 6, 1).astype(model.dtype)
        inside = []
        real = evaluation._decode_block

        def spy(model, z):
            inside.append(get())
            return real(model, z)

        monkeypatch.setattr(evaluation, "_decode_block", spy)
        evaluation.decode_hardened(model, z)
        assert inside == [1, 1]
        assert get() == 2
        z[60] = np.nan  # in the helper's half
        with pytest.raises(NumericFailureError):
            evaluation.decode_hardened(model, z)
        assert get() == 2

    @pytest.mark.parametrize("maps", [
        "",
        "7f0000000000-7f0000001000 r--p 00000000 fe:00 1  /usr/lib/libc.so.6\n",
        # a mapping that names the library but cannot be opened
        "7f0000000000-7f0000001000 r--p 00000000 fe:00 1  /nonexistent/libscipy_openblas64_.so\n",
    ], ids=["no maps", "no openblas", "unloadable"])
    def test_does_nothing_without_openblas(self, two_blas_threads, monkeypatch, maps):
        get = two_blas_threads
        monkeypatch.setattr(cores, "_read_maps", lambda: maps)
        monkeypatch.setattr(cores, "_blas", None)
        with cores.one_blas_thread():
            assert get() == 2
        assert get() == 2
        assert cores._blas == ()


class TestSplitRule:
    @pytest.mark.parametrize("rows, hidden, latent, split", [
        (4, 128, 16, False),     # the acceptance config
        (63, 128, 16, False),
        (64, 128, 16, True),     # the first batch past the rule at hidden 128
        (64, 256, 96, True),     # the paper default
        (16, 256, 96, True),
        (15, 256, 96, False),
        (3, 448, 96, False),     # a half of one row would go through gemv
        (64, 512, 96, False),    # past the widths whose rows split exactly
        (64, 256, 512, False),
    ])
    def test_splits(self, rows, hidden, latent, split):
        assert cores.splits(rows, hidden, latent) is split

    def test_by_rows_on_both_sides_of_the_rule(self, monkeypatch):
        pool, submitted, calls = cores.helper(), [], []

        class Recorder:
            def submit(self, fn, *args):
                submitted.append(args)
                return pool.submit(fn, *args)
        monkeypatch.setattr(cores, "helper", Recorder)

        def fn(rows):
            calls.append((rows, threading.current_thread()))
            return rows
        # below the rule: one call on this thread, nothing submitted
        assert cores.by_rows(fn, 63, 128, 16) == [slice(0, 63)]
        assert calls == [(slice(0, 63), threading.current_thread())]
        assert submitted == []
        # above it: the halves in order, the second handed to the helper
        assert cores.by_rows(fn, 65, 128, 16) == [slice(0, 33), slice(33, 65)]
        assert submitted == [(slice(33, 65),)]
        here = threading.current_thread()
        assert sorted((rows.start, thread is here) for rows, thread in calls[1:]) \
            == [(0, True), (33, False)]


class TestOneHelper:
    def test_training_and_decoding_share_one_helper(self, rng):
        # both past the split rule: batch 64 and 80 rows at hidden 128
        train(small_dataset(rng, n=80),
              ModelConfig(latent_dim=4, hidden=128, gru_layers=1, batch_size=64,
                          max_epochs=1, rng_seed=11))
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=128, gru_layers=1, rng_seed=2))
        evaluation.decode_hardened(model, sample_latent(80, 6, 1).astype(model.dtype))
        helpers = [t for t in threading.enumerate() if t.name.startswith("ttvae-helper")]
        assert len(helpers) == 1
        assert cores.helper() is cores.helper()


class TestKeepBuffersMapped:
    @pytest.fixture
    def unset(self, monkeypatch):
        """The allocator setting not yet made, and mallopt recorded, not called."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cores, "_heap_set", False)
        monkeypatch.setattr(cores, "_mallopt", lambda: mallopt)
        return calls

    def test_sets_both_thresholds_once(self, unset):
        cores.keep_buffers_mapped()
        assert unset == [(-3, 64 << 20), (-1, 2**31 - 1)]
        cores.keep_buffers_mapped()
        assert len(unset) == 2

    def test_nothing_without_mallopt(self, unset, monkeypatch):
        monkeypatch.setattr(cores, "_mallopt", lambda: None)
        cores.keep_buffers_mapped()
        cores.keep_buffers_mapped()
        assert unset == [] and cores._heap_set

    def test_train_sets_it(self, unset, rng):
        train(small_dataset(rng), TINY)
        assert len(unset) == 2

    def test_finds_the_c_librarys_mallopt(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("glibc's mallopt is looked for on Linux only")
        assert cores._mallopt() is not None
