import gc
import json
import os
import re
import select
import signal
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossnet import autodiff as ad
from crossnet import model as model_module
from crossnet.autodiff import Tensor
from crossnet.crossing import lasso_penalty
from crossnet.data import build_schema, gen_synthetic_interaction, synthetic_schema_config
from crossnet.model import (SCORE_BYTES, GruParams, Model, OutputParams,
                            TrainConfig, auc, confusion_report, evaluate, gru_forward,
                            load_checkpoint, lq_loss, objective, predict,
                            save_checkpoint, time_concat, train)

from test_data import SPECIAL_CELLS, encoding_cases, gather_ref, normalize_ref


def make_dataset(n=40, T=2, noise=1, seed=0):
    samples = gen_synthetic_interaction(n, T, noise, seed=seed)
    sc = synthetic_schema_config(noise, T)
    schema = build_schema(samples, sc)
    return samples, schema


def small_config(**kw):
    defaults = dict(T=2, d=4, rank_widths=(3,), s=1, h=5, k=2, q=0.5,
                    lam=1e-3, lr=0.01, epochs=3, batch_size=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTimeConcat:
    def test_channel_major_flattening(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))  # [1,1,2,2]
        (step,) = time_concat(x)
        np.testing.assert_array_equal(step.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_lengths(self):
        x = Tensor(np.zeros((2, 3, 4, 5)))
        steps = time_concat(x)
        assert len(steps) == 3
        assert all(s.shape == (2, 20) for s in steps)


class TestGru:
    def make_zero_gru(self, h, in_dim):
        gru = GruParams(h, in_dim, np.random.default_rng(0))
        for p in gru.params():
            p.data[...] = 0.0
        return gru

    def test_zero_params_zero_state(self):
        gru = self.make_zero_gru(4, 3)
        inputs = [Tensor(np.ones((2, 3))) for _ in range(3)]
        h = gru_forward(inputs, gru)
        np.testing.assert_array_equal(h.data, np.zeros((2, 4)))

    def test_zero_params_halves_initial_state(self):
        gru = self.make_zero_gru(4, 3)
        v = np.random.default_rng(1).normal(size=(2, 4))
        T = 3
        inputs = [Tensor(np.ones((2, 3))) for _ in range(T)]
        h = gru_forward(inputs, gru, h0=Tensor(v))
        np.testing.assert_allclose(h.data, v / 2 ** T)

    def test_gradient_through_steps(self):
        rng = np.random.default_rng(2)
        gru = GruParams(3, 2, rng)
        inputs = [Tensor(rng.normal(size=(2, 2))) for _ in range(3)]

        def f():
            return ad.tsum(ad.power(gru_forward(inputs, gru), 2.0))

        assert ad.grad_check(f, gru.params())["ok"]


class TestPredict:
    def test_zero_projection(self):
        out = OutputParams(k=3, h=4, rng=np.random.default_rng(0))
        out.w_fc.data[...] = 0.0
        y, r = predict(Tensor(np.ones((2, 4))), out)
        np.testing.assert_allclose(y.data, 0.5)
        np.testing.assert_allclose(r.data, 1.0 / 3)

    def test_argmax_on_extreme_logits(self):
        out = OutputParams(k=2, h=1, rng=np.random.default_rng(0))
        out.w_fc.data = np.array([[20.0], [-20.0]])
        y, _ = predict(Tensor(np.ones((1, 1))), out)
        np.testing.assert_allclose(y.data, [[1.0, 0.0]], atol=1e-8)
        assert y.data.argmax() == 0

    def test_r_sums_to_one(self):
        out = OutputParams(k=4, h=3, rng=np.random.default_rng(3))
        _, r = predict(Tensor(np.random.default_rng(4).normal(size=(5, 3))), out)
        np.testing.assert_allclose(r.data.sum(axis=-1), 1.0, atol=1e-9)


class TestLqLoss:
    def test_certain_prediction_zero_loss(self):
        for q in (0.1, 0.5, 1.0):
            loss = lq_loss(Tensor([1.0, 0.0]), 0, q)
            assert loss.data.item() == pytest.approx(0.0, abs=1e-9)

    def test_hand_arithmetic(self):
        # normalized p_true = 0.25, q = 0.5 -> (1 - 0.5)/0.5 = 1
        loss = lq_loss(Tensor([0.25, 0.75]), 0, 0.5)
        assert loss.data.item() == pytest.approx(1.0)

    def test_cross_entropy_limit(self):
        loss = lq_loss(Tensor([0.3, 0.7]), 0, 1e-3)
        assert loss.data.item() == pytest.approx(-np.log(0.3), rel=1e-2)

    def test_q_one_is_one_minus_p(self):
        loss = lq_loss(Tensor([0.3, 0.7]), 0, 1.0)
        assert loss.data.item() == pytest.approx(1.0 - 0.3)

    def test_strictly_decreasing_in_p_true(self):
        for q in (0.2, 0.7, 1.0):
            losses = [lq_loss(Tensor([p, 1.0 - p]), 0, q).data.item()
                      for p in np.linspace(0.05, 0.95, 10)]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            lq_loss(Tensor([0.5, 0.5]), 0, 0.0)
        with pytest.raises(ValueError):
            lq_loss(Tensor([0.5, 0.5]), 0, 1.5)

    def test_batched_mean(self):
        y = Tensor(np.array([[0.25, 0.75], [0.75, 0.25]]))
        loss = lq_loss(y, np.array([0, 0]), 0.5)
        single = (lq_loss(Tensor([0.25, 0.75]), 0, 0.5).data.item()
                  + lq_loss(Tensor([0.75, 0.25]), 0, 0.5).data.item()) / 2
        assert loss.data.item() == pytest.approx(single)


class TestObjective:
    def test_lambda_zero_is_pure_loss(self):
        samples, schema = make_dataset(8)
        cfg = small_config(lam=0.0)
        model = Model(schema, cfg)
        loss, fwd = objective(samples, model, cfg)
        direct = lq_loss(fwd["y"], [s.label for s in samples], cfg.q)
        assert loss.data.item() == pytest.approx(direct.data.item())

    def test_lasso_term_added(self):
        samples, schema = make_dataset(8)
        cfg = small_config(lam=0.1)
        model = Model(schema, cfg)
        loss, fwd = objective(samples, model, cfg)
        base = lq_loss(fwd["y"], [s.label for s in samples], cfg.q)
        penalty = lasso_penalty(model.blocks)
        assert loss.data.item() == pytest.approx(
            base.data.item() + 0.1 * penalty.data.item())

    def test_no_blocks_no_penalty(self):
        samples, schema = make_dataset(8)
        cfg = small_config(rank_widths=(), lam=0.5)
        model = Model(schema, cfg)
        loss, fwd = objective(samples, model, cfg)
        base = lq_loss(fwd["y"], [s.label for s in samples], cfg.q)
        assert loss.data.item() == pytest.approx(base.data.item())


class TestForwardInput:
    """Model.forward encodes a list of raw samples as the references do."""

    @settings(max_examples=50, deadline=None)
    @given(encoding_cases())
    @example(SPECIAL_CELLS)
    def test_raw_list_matches_the_reference_batch(self, case):
        schema, samples = case
        model = Model(schema, small_config(T=len(samples[0].steps)))
        want = model.forward(gather_ref([normalize_ref(s, schema) for s in samples], schema))
        got = model.forward(samples)
        for k in ("y", "r", "p", "q"):
            assert got[k].data.tobytes() == want[k].data.tobytes()


class TestScore:
    """Model.score: forward-only batches of raw samples, grad mode restored at each yield."""

    def scoring_model(self, T, noise, **kw):
        """A model on synthetic fields, and a full scoring batch of samples plus 10."""
        probe = gen_synthetic_interaction(8, T, noise, seed=0)
        model = Model(build_schema(probe, synthetic_schema_config(noise, T)),
                      small_config(T=T, **kw))
        return model, gen_synthetic_interaction(model.score_batch + 10, T, noise, seed=0)

    @pytest.fixture
    def scored(self):
        return self.scoring_model(2, 1)

    def assert_batches_match_forward(self, model, samples):
        size = model.score_batch
        got = list(model.score(samples))
        assert [len(out["y"]) for out in got] == [size, 10]
        for out, start in zip(got, (0, size)):
            batch = samples[start:start + size]
            fwd = model.forward(gather_ref([normalize_ref(s, model.schema) for s in batch],
                                           model.schema))
            assert sorted(out) == ["p", "q", "r", "y"]
            for k, v in out.items():
                np.testing.assert_array_equal(v, fwd[k].data)

    def test_batches_match_forward_on_normalized_samples(self, scored):
        model, samples = scored
        # T=2, N=6, d=4: 384 bytes of the stack a sample
        assert model.score_batch == SCORE_BYTES // 384 > 256
        self.assert_batches_match_forward(model, samples)

    def test_a_wide_model_scores_fewer_than_256_at_a_time(self):
        model, samples = self.scoring_model(5, 21, d=8, rank_widths=(8, 4))
        # 23 fields and 8 + 4 crossed ones: 8·T·N·d = 11200 bytes a sample
        assert model.score_batch == SCORE_BYTES // 11200 < 256
        self.assert_batches_match_forward(model, samples)

    # each test holds the generator, so leaving the loop does not close it
    def test_breaking_after_one_batch_leaves_grad_mode_on(self, scored):
        model, samples = scored
        batches = model.score(samples)
        for _ in batches:
            assert ad.grad_enabled()
            break
        assert ad.grad_enabled()
        assert len(next(batches)["y"]) == 10

    def test_an_exception_in_the_consumer_leaves_grad_mode_on(self, scored):
        model, samples = scored
        batches = model.score(samples)
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in batches:
                raise RuntimeError("consumer failed")
        assert ad.grad_enabled()

    def test_evaluate_checks_every_label_before_scoring(self, scored, monkeypatch):
        model, samples = scored
        samples[-1].label = 2

        def no_forward(*args):
            raise AssertionError("scored before the labels were checked")

        monkeypatch.setattr(Model, "forward", no_forward)
        with pytest.raises(ValueError, match="has label 2, outside"):
            evaluate(model, samples)


class Unsendable(Exception):
    """An exception that cannot be pickled: it holds a lambda."""

    def __init__(self, msg):
        super().__init__(msg)
        self.callback = lambda: None


class Unreadable(Exception):
    """An exception that pickles but cannot be unpickled: its constructor
    takes two arguments and its args hold one."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestTwoScoringThreads:
    """Model.score with its helper, a forked child process: the caller scores
    the even batches and the child the odd ones, each yielded in order and
    checked in the caller, and the child is killed if still running and
    reaped however the scoring ends. The autouse ``no_child_process_left``
    fixture checks the reaping again after every test. The helper was a
    thread; the ids of the tests that predate the child are kept, as lists
    of passing tests name them."""

    SIZE = 16

    @pytest.fixture
    def scoring(self, monkeypatch, process_log):
        """A model scoring SIZE samples a batch with its helper, and a log with a
        ("forward", first entity id, pid) event as each forward pass begins and
        an ("end", first entity id, pid) one as it ends."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(model_module, "ONE_BLAS_THREAD", True)
        probe = gen_synthetic_interaction(8, 2, 1, seed=0)
        m = Model(build_schema(probe, synthetic_schema_config(1, 2)), small_config())
        # T=2, N=6, d=4: 384 bytes of the stack a sample
        monkeypatch.setattr(model_module, "SCORE_BYTES", self.SIZE * 384)
        assert m.score_batch == self.SIZE
        forward = Model.forward

        def logging_forward(self, batch):
            process_log.append("forward", batch[0].entity_id)
            fwd = forward(self, batch)
            process_log.append("end", batch[0].entity_id)
            return fwd

        monkeypatch.setattr(Model, "forward", logging_forward)
        return m, process_log

    @pytest.fixture
    def held(self, scoring, monkeypatch):
        """Make the forward pass of the batch that starts with the given sample,
        which the child runs, wait first on a pipe that nothing writes to, so
        that the child is still running until it is killed. The wait ends after
        a minute, so a test whose kill never comes fails rather than hangs."""
        read_end, write_end = os.pipe()
        forward = Model.forward

        def hold(first):
            def forward_held(self, batch):
                if batch[0] is first:
                    select.select([read_end], [], [], 60)
                return forward(self, batch)

            monkeypatch.setattr(Model, "forward", forward_held)

        yield hold
        os.close(read_end)
        os.close(write_end)

    def in_the_helper(self, monkeypatch, action):
        """Make each forward pass in a process other than this one call ``action``
        first."""
        parent, forward = os.getpid(), Model.forward

        def forward_in_either(self, batch):
            if os.getpid() != parent:
                action()
            return forward(self, batch)

        monkeypatch.setattr(Model, "forward", forward_in_either)

    @pytest.mark.parametrize("n", [1, SIZE, SIZE + 1, 3 * SIZE + 1])
    def test_batches_match_one_forward_each_in_order(self, scoring, n, no_child_process_left):
        m, log = scoring
        samples = gen_synthetic_interaction(n, 2, 1, seed=1)
        got = list(m.score(samples))
        no_child_process_left()
        events = log.events()
        starts = range(0, n, self.SIZE)
        assert [len(out["y"]) for out in got] == [len(samples[s:s + self.SIZE]) for s in starts]
        # one forward pass a batch: the even ones in this process, the odd ones in one other
        forwards = {first: pid for event, first, pid in events if event == "forward"}
        assert len(forwards) == len(starts)
        pids = [forwards[samples[s].entity_id] for s in starts]
        assert [pid == os.getpid() for pid in pids] == [i % 2 == 0 for i in range(len(starts))]
        assert len(set(pids)) == min(len(starts), 2)
        # each process runs one forward pass at a time: its begin and end events alternate
        for pid in set(pids):
            firsts = [samples[s].entity_id for s, p in zip(starts, pids) if p == pid]
            assert [e[:2] for e in events if e[2] == pid] == [
                (event, first) for first in firsts for event in ("forward", "end")]
        for out, start in zip(got, starts):
            want = m.forward(samples[start:start + self.SIZE])
            for k in ("y", "r", "p", "q"):
                assert out[k].tobytes() == want[k].data.tobytes()

    def test_the_first_non_finite_entity_in_an_odd_batch_is_named(self, scoring, monkeypatch,
                                                                   no_child_process_left):
        m, _ = scoring
        samples = gen_synthetic_interaction(4 * self.SIZE, 2, 1, seed=1)
        bad = {samples[self.SIZE + 3].entity_id, samples[2 * self.SIZE].entity_id}
        forward = Model.forward

        def overflowing(self, batch):
            fwd = forward(self, batch)
            for i, s in enumerate(batch):
                if s.entity_id in bad:
                    fwd["r"].data[i, 0] = np.inf
            return fwd

        monkeypatch.setattr(Model, "forward", overflowing)
        with pytest.raises(ValueError, match=f"entity '{samples[self.SIZE + 3].entity_id}' "
                                             f"scores non-finite"):
            evaluate(m, samples)
        no_child_process_left()

    def test_an_exception_in_the_helper_reaches_the_caller_at_its_batch(
            self, scoring, no_child_process_left):
        m, log = scoring
        samples = gen_synthetic_interaction(3 * self.SIZE, 2, 1, seed=1)
        samples[self.SIZE + 1].steps.pop()
        got = []
        with pytest.raises(ValueError, match="^every sample in a batch needs 2 steps"):
            for out in m.score(samples):
                got.append(out)
        assert len(got) == 1
        no_child_process_left()
        first = samples[self.SIZE].entity_id
        assert [pid for event, e, pid in log.events() if e == first] != [os.getpid()]

    def test_an_exception_in_the_caller_stops_the_helper(self, scoring, no_child_process_left):
        m, _ = scoring
        samples = gen_synthetic_interaction(4 * self.SIZE, 2, 1, seed=1)
        samples[2 * self.SIZE + 1].steps.pop()
        got = []
        with pytest.raises(ValueError, match="^every sample in a batch needs 2 steps"):
            for out in m.score(samples):
                got.append(out)
        assert len(got) == 2
        no_child_process_left()

    def test_a_helper_killed_mid_run_raises_child_process_error(self, scoring, monkeypatch,
                                                                no_child_process_left):
        m, _ = scoring
        self.in_the_helper(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        got = []
        with pytest.raises(ChildProcessError, match=r"ended with no result \(killed by signal 9\)"):
            for out in m.score(gen_synthetic_interaction(3 * self.SIZE, 2, 1, seed=1)):
                got.append(out)
        assert len(got) == 1
        no_child_process_left()

    def test_a_child_killed_while_held_raises_child_process_error(
            self, scoring, held, no_child_process_left):
        m, log = scoring
        samples = gen_synthetic_interaction(4 * self.SIZE, 2, 1, seed=1)
        held(samples[3 * self.SIZE])
        got = []
        with pytest.raises(ChildProcessError, match=r"ended with no result \(killed by signal 9\)"):
            for out in m.score(samples):
                got.append(out)
                if len(got) == 2:
                    # the child sent batch 1 and is scoring batch 3, or about to
                    child, = {pid for *_, pid in log.events()} - {os.getpid()}
                    os.kill(child, signal.SIGKILL)
        assert len(got) == 3
        no_child_process_left()

    def test_half_a_result_from_the_child_raises_child_process_error(
            self, scoring, monkeypatch, no_child_process_left):
        m, _ = scoring
        outcome = model_module._outcome
        # one odd batch, so the child ends after writing half of its result
        monkeypatch.setattr(model_module, "_outcome",
                            lambda score, start: outcome(score, start)[:100])
        got = []
        with pytest.raises(ChildProcessError, match=r"result could not be read: "
                                                    r"UnpicklingError: pickle data was truncated"):
            for out in m.score(gen_synthetic_interaction(3 * self.SIZE, 2, 1, seed=1)):
                got.append(out)
        assert len(got) == 1
        no_child_process_left()

    @pytest.mark.parametrize("exc, message", [
        (Unsendable, r"raised Unsendable: odd batch, which could not be sent back"),
        (Unreadable, r"result could not be read: TypeError"),
    ])
    def test_an_unpicklable_exception_in_an_odd_batch_raises_child_process_error(
            self, scoring, monkeypatch, no_child_process_left, exc, message):
        m, _ = scoring

        def fail():
            raise exc("odd batch") if exc is Unsendable else exc("odd", "batch")

        self.in_the_helper(monkeypatch, fail)
        got = []
        with pytest.raises(ChildProcessError, match=message):
            for out in m.score(gen_synthetic_interaction(3 * self.SIZE, 2, 1, seed=1)):
                got.append(out)
        assert len(got) == 1
        no_child_process_left()

    def test_evaluate_and_a_break_leave_no_helper(self, scoring, held, no_child_process_left):
        m, log = scoring
        samples = gen_synthetic_interaction(4 * self.SIZE, 2, 1, seed=1)
        evaluate(m, samples)
        no_child_process_left()
        assert len({pid for *_, pid in log.events()}) == 2
        # a generator dropped after a break, one closed, and one garbage-collected,
        # each with its child held in batch 1, so that it is still running
        held(samples[self.SIZE])
        for _ in m.score(samples):
            with pytest.raises(AssertionError, match="still running"):
                no_child_process_left()
            break
        no_child_process_left()
        batches = m.score(samples)
        next(batches)
        with pytest.raises(AssertionError, match="still running"):
            no_child_process_left()
        batches.close()
        no_child_process_left()
        batches = m.score(samples)
        next(batches)
        with pytest.raises(AssertionError, match="still running"):
            no_child_process_left()
        del batches
        no_child_process_left()

    def test_the_helper_freezes_the_heap_it_inherits(self, scoring, monkeypatch):
        m, log = scoring
        # a collection in the child then passes over the objects it shares with
        # the parent; the parent's own collector is left as it was
        self.in_the_helper(monkeypatch, lambda: log.append("frozen", gc.get_freeze_count() > 0))
        list(m.score(gen_synthetic_interaction(4 * self.SIZE, 2, 1, seed=1)))
        assert [e[:2] for e in log.events() if e[0] == "frozen"] == [("frozen", "True")] * 2
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("host", ["darwin", "one cpu", "blas threads"])
    def test_a_host_off_linux_or_without_fork_scores_on_the_caller_alone(self, scoring, monkeypatch,
                                                                      host):
        m, log = scoring
        samples = gen_synthetic_interaction(3 * self.SIZE, 2, 1, seed=1)
        with monkeypatch.context() as patched:
            if host == "darwin":
                patched.setattr(sys, "platform", "darwin")
            elif host == "one cpu":
                # an affinity set of one CPU, as under ``taskset -c 0``
                patched.setattr(os, "sched_getaffinity", lambda pid: {0})
            else:
                # a BLAS on several threads in each of two processes would oversubscribe
                patched.setattr(model_module, "ONE_BLAS_THREAD", False)
            got = list(m.score(samples))
        assert len(got) == 3
        assert {pid for *_, pid in log.events()} == {os.getpid()}

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_importing_crossnet_sets_an_unset_blas_thread_count_to_one(self, preset):
        # a fresh interpreter, so that crossnet loads before NumPy
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = str(Path(model_module.__file__).parents[1])
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = f"import os, crossnet; print(*(os.environ.get(v) for v in {blas!r}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == [preset or "1", "1", "1"]

    @pytest.mark.parametrize("numpy_first, preset, one", [
        (False, None, True), (False, "2", False), (True, None, False), (True, "1", True),
    ], ids=["crossnet_first", "set_to_2", "numpy_first", "numpy_first_all_set_to_1"])
    def test_one_blas_thread_needs_each_variable_at_1_before_numpy_loads(self, numpy_first,
                                                                          preset, one):
        # a fresh interpreter, so that the import order is the one under test
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = str(Path(model_module.__file__).parents[1])
        if preset:
            env.update(dict.fromkeys(blas, "1"), OPENBLAS_NUM_THREADS=preset)
        code = "import numpy\n" * numpy_first + "import crossnet; print(crossnet.ONE_BLAS_THREAD)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == f"{one}\n"

    def test_without_the_helper_no_thread_is_started(self, monkeypatch, no_child_process_left):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(model_module, "SCORE_BYTES", self.SIZE * 384)
        samples, schema = make_dataset(n=3 * self.SIZE)
        m = Model(schema, small_config())
        before = threading.active_count()
        for _ in m.score(samples):
            assert threading.active_count() == before
            no_child_process_left()


class TestTrain:
    def test_zero_lr_leaves_params(self):
        samples, schema = make_dataset(16)
        cfg = small_config(lr=0.0, epochs=2)
        model, _ = train(samples, schema, cfg)
        reference = Model(schema, cfg)
        for p, q in zip(model.params(), reference.params()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_seed_reproducibility(self):
        samples, schema = make_dataset(16)
        cfg = small_config(epochs=2)
        m1, t1 = train(samples, schema, cfg)
        m2, t2 = train(samples, schema, cfg)
        assert t1 == t2
        for p, q in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_loss_mostly_non_increasing(self):
        # regression fixture: seeded 5-epoch run must improve in >= 3 transitions
        samples, schema = make_dataset(200, seed=7)
        cfg = small_config(epochs=5, seed=7, batch_size=8)
        _, trace = train(samples, schema, cfg)
        losses = [row[1] for row in trace]
        improving = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert improving >= 3, losses

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_classes_names_entity(self, label):
        samples, schema = make_dataset(8)
        samples[3].label = label
        with pytest.raises(ValueError, match=f"'{samples[3].entity_id}' has label {label}"):
            train(samples, schema, small_config())

    def test_empty_training_set(self):
        _, schema = make_dataset(4)
        with pytest.raises(ValueError):
            train([], schema, small_config())


class TestMetrics:
    def test_all_correct(self):
        report = confusion_report([1, 0, 1], [1, 0, 1])
        assert (report.acc, report.err1, report.err2) == (1.0, 0.0, 0.0)

    def test_type_one_error(self):
        preds = [1, 1] + [0] * 8
        labels = [0] * 10
        report = confusion_report(preds, labels)
        assert report.err1 == pytest.approx(0.2)
        assert report.tn == 8 and report.fp == 2

    def test_type_two_error(self):
        preds = [1, 1, 1, 0]
        labels = [1, 1, 1, 1]
        report = confusion_report(preds, labels)
        assert report.err2 == pytest.approx(0.25)

    def test_confusion_fixture(self):
        preds = [1] * 3 + [0] * 1 + [0] * 8 + [1] * 2
        labels = [1] * 4 + [0] * 10
        report = confusion_report(preds, labels)
        assert (report.tp, report.fn, report.tn, report.fp) == (3, 1, 8, 2)
        assert report.acc == pytest.approx(11 / 14)
        assert report.err1 == pytest.approx(0.2)
        assert report.err2 == pytest.approx(0.25)
        assert report.acc == 1.0 - (report.fp + report.fn) / 14

    def test_evaluate_on_empty(self):
        _, schema = make_dataset(4)
        model = Model(schema, small_config())
        with pytest.raises(ValueError):
            evaluate(model, [])

    def test_three_classes_count_every_sample(self):
        report = confusion_report([0, 1, 2, 2, 1], [0, 1, 2, 2, 2])
        assert report.acc == 0.8
        # class 1 against the rest
        assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 0, 3)
        assert report.tp + report.fp + report.fn + report.tn == 5

    def test_three_classes_auc_is_class_one_against_the_rest(self):
        labels = [0, 1, 2, 1, 2, 0]
        scores = [0.1, 0.9, 0.3, 0.4, 0.5, 0.2]
        report = confusion_report([0, 1, 2, 0, 2, 0], labels, scores)
        assert report.auc == auc(scores, [int(y == 1) for y in labels]) == 0.875

    @pytest.mark.parametrize("label", [-1, 2])
    def test_evaluate_rejects_a_label_outside_k(self, label):
        samples = gen_synthetic_interaction(6, 2, 1, seed=0)
        schema = build_schema(samples, synthetic_schema_config(1, 2))
        samples[2].label = label
        with pytest.raises(ValueError, match=f"has label {label}, outside"):
            evaluate(Model(schema, small_config()), samples)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_half_concordant(self):
        assert auc([0.9, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5

    def test_all_ties(self):
        assert auc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base)
        assert auc(2 * scores - 7, labels) == pytest.approx(base)


def loop_midrank_auc(scores, labels):
    """The earlier while-loop midrank AUC, kept as the reference."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    pooled = np.concatenate([pos, neg])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    sorted_scores = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    return float((ranks[:len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0)
                 / (len(pos) * len(neg)))


class TestAucTies:
    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 50])
    def test_heavy_ties_match_loop(self, levels):
        rng = np.random.default_rng(levels)
        scores = rng.integers(0, levels, size=400) / 4.0
        labels = rng.integers(0, 2, size=400)
        labels[:2] = [0, 1]
        assert auc(scores, labels) == loop_midrank_auc(scores, labels)

    def test_all_tied_is_half(self):
        labels = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        assert auc(np.full(8, 0.25), labels) == 0.5
        assert loop_midrank_auc(np.full(8, 0.25), labels) == 0.5

    def test_tied_block_straddling_classes(self):
        # one positive above, a tie of one positive and one negative, one negative below
        assert auc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0]) == pytest.approx(0.875)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        samples, schema = make_dataset(16)
        cfg = small_config(epochs=1)
        model, _ = train(samples, schema, cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name, p in model.named_params().items():
            np.testing.assert_array_equal(loaded.named_params()[name].data, p.data)
        out1 = model.forward(samples[:4])["y"].data
        out2 = loaded.forward(samples[:4])["y"].data
        np.testing.assert_array_equal(out1, out2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def saved(self, tmp_path):
        _, schema = make_dataset(16)
        model = Model(schema, small_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        return model, path

    def test_missing_param_rejected(self, tmp_path):
        model, path = self.saved(tmp_path)
        named = model.named_params()
        dropped = sorted(named)[0]
        model.named_params = lambda: {k: v for k, v in named.items() if k != dropped}
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=f"lacks model parameters: {dropped}"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 unexpected bytes after the last parameter"):
            load_checkpoint(path)

    def test_repeated_param_rejected(self, tmp_path):
        # raise the parameter count by one and repeat the last record
        model, path = self.saved(tmp_path)
        blob = path.read_bytes()
        at = 5                                          # past the magic
        for _ in range(2):                              # past the schema and config blobs
            at += 4 + struct.unpack_from("<I", blob, at)[0]
        (count,) = struct.unpack_from("<I", blob, at)
        name = sorted(model.named_params())[-1]
        p = model.named_params()[name]
        record = 4 + len(name) + 4 + 4 * p.data.ndim + 8 * p.data.size
        path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:]
                         + blob[-record:])
        with pytest.raises(ValueError, match="appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [7, 12, 40, -200, -9, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        # cuts inside the schema length, the schema blob, and parameter arrays
        _, path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match="is truncated"):
            load_checkpoint(path)

    def rewrite_header(self, path, schema=None, config=None):
        """Replace the schema or config JSON of a checkpoint, keeping the rest."""
        blob = path.read_bytes()
        at, parts = 5, []
        for _ in range(2):
            (n,) = struct.unpack_from("<I", blob, at)
            parts.append(json.loads(blob[at + 4:at + 4 + n]))
            at += 4 + n
        header = b""
        for obj, edit in zip(parts, (schema, config)):
            text = json.dumps(edit(obj) if edit else obj).encode()
            header += struct.pack("<I", len(text)) + text
        path.write_bytes(blob[:5] + header + blob[at:])

    @pytest.mark.parametrize("schema, config", [
        (None, lambda c: {**c, "extra": 1}),
        (None, lambda c: list(c.values())),
        (None, lambda c: {**c, "d": "4"}),
        (None, lambda c: {k: v for k, v in c.items() if k != "d"}),
        (None, lambda c: {**c, "rank_widths": 3}),
        (None, lambda c: {**c, "top_k": 0}),
        (None, lambda c: {**c, "lr": True}),
        (lambda s: [{**s[0], "extra": 1}] + s[1:], None),
        (lambda s: {}, None),
        (lambda s: [], None),
        (lambda s: s[0], None),
        (lambda s: [{**s[0], "kind": "ordinal"}] + s[1:], None),
        (lambda s: [{**s[0], "mean": "0"}] + s[1:], None),
        (lambda s: [{**s[0], "std": 0}] + s[1:], None),
        (lambda s: [{**s[0], "kind": "categorical"}] + s[1:], None),
        (lambda s: [{**s[0], "multi_valued": True}] + s[1:], None),
        (lambda s: [{**s[0], "kind": "categorical", "vocab": ["a", ["b"]]}] + s[1:], None),
        (lambda s: [{**s[0], "kind": "categorical", "vocab": ["a", 1]}] + s[1:], None),
        (lambda s: [{**s[0], "kind": "categorical", "vocab": [None]}] + s[1:], None),
    ], ids=["config-extra-key", "config-list", "config-str-int", "config-missing-key",
            "config-int-widths", "config-top-k-0", "config-bool-lr", "schema-extra-key",
            "schema-object", "schema-empty", "schema-field-not-in-list", "schema-bad-kind",
            "schema-str-mean", "schema-zero-std", "schema-categorical-without-vocab",
            "schema-multi-valued-numerical", "schema-vocab-list-entry", "schema-vocab-int-entry",
            "schema-vocab-null-entry"])
    def test_malformed_header_rejected(self, tmp_path, schema, config):
        _, path = self.saved(tmp_path)
        self.rewrite_header(path, schema, config)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has a malformed header"):
            load_checkpoint(path)

    def test_header_that_is_not_json_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:9] + b"!" + blob[10:])
        with pytest.raises(ValueError, match="malformed header"):
            load_checkpoint(path)

    def test_int_where_float_declared_round_trips(self, tmp_path):
        _, schema = make_dataset(16)
        config = small_config(q=1, lam=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(schema, config), path)
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert type(loaded.config.q) is int and type(loaded.config.lam) is int
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()


    @settings(max_examples=8, deadline=None)
    @given(T=st.integers(1, 2), d=st.integers(1, 2), h=st.integers(1, 2),
           widths=st.lists(st.integers(1, 2), max_size=2), seed=st.integers(0, 2**16),
           extra=st.binary(min_size=1, max_size=9))
    def test_round_trip_is_byte_identical_and_any_cut_or_extra_byte_is_rejected(
            self, T, d, h, widths, seed, extra):
        _, schema = make_dataset(16, T=T)
        model = Model(schema, small_config(T=T, d=d, h=h, rank_widths=widths, s=1, seed=seed))
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308])
        for p in model.named_params().values():
            p.data = np.where(rng.random(p.data.shape) < 0.2,
                              rng.choice(special, size=p.data.shape), p.data)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "m.ckpt", Path(tmp) / "again.ckpt"
            save_checkpoint(model, path)
            save_checkpoint(load_checkpoint(path), again)
            blob = path.read_bytes()
            assert again.read_bytes() == blob
            for cut in [blob[:n] for n in range(len(blob))] + [blob + extra]:
                path.write_bytes(cut)
                with pytest.raises(ValueError):
                    load_checkpoint(path)


class TestTrainConfigChecks:
    def test_numpy_ints_become_ints(self):
        cfg = small_config(d=np.int64(4), rank_widths=[np.int32(3)], seed=np.uint8(2))
        assert (cfg.d, cfg.rank_widths, cfg.seed) == (4, (3,), 2)
        assert type(cfg.d) is int and type(cfg.rank_widths[0]) is int

    def test_float_fields_keep_what_they_are_given(self):
        assert type(small_config(lr=1).lr) is int
        assert type(small_config(lr=np.float64(0.5)).lr) is np.float64

    @pytest.mark.parametrize("kw", [
        dict(d=True), dict(d=4.0), dict(d="4"), dict(rank_widths=3),
        dict(rank_widths="3"), dict(rank_widths=(3, False)), dict(q=False),
        dict(q="0.5"), dict(lam=float("nan")), dict(lr=float("inf")),
        dict(epsilon=-1e-9), dict(seed=-1), dict(T=0, s=1), dict(top_k=0),
    ], ids=str)
    def test_rejected(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"^{name} "):
            small_config(**kw)
