"""Failpoint registry: crash, pause, callback, skip counts."""

import threading

import pytest

from repro.common.errors import SimulatedCrash
from repro.common.failpoints import FailpointRegistry


class TestCrashFailpoints:
    def test_unarmed_hit_is_noop(self):
        fp = FailpointRegistry()
        fp.hit("anything")
        assert fp.hits("anything") == 1

    def test_armed_crash_raises(self):
        fp = FailpointRegistry()
        fp.arm_crash("boom")
        with pytest.raises(SimulatedCrash) as info:
            fp.hit("boom")
        assert info.value.failpoint == "boom"

    def test_crash_fires_once(self):
        fp = FailpointRegistry()
        fp.arm_crash("boom")
        with pytest.raises(SimulatedCrash):
            fp.hit("boom")
        fp.hit("boom")  # disarmed after firing

    def test_skip_count(self):
        fp = FailpointRegistry()
        fp.arm_crash("boom", skip=2)
        fp.hit("boom")
        fp.hit("boom")
        with pytest.raises(SimulatedCrash):
            fp.hit("boom")

    def test_disarm(self):
        fp = FailpointRegistry()
        fp.arm_crash("boom")
        fp.disarm("boom")
        fp.hit("boom")

    def test_disarm_all(self):
        fp = FailpointRegistry()
        fp.arm_crash("a")
        fp.arm_crash("b")
        fp.disarm_all()
        fp.hit("a")
        fp.hit("b")


class TestPauseFailpoints:
    def test_pause_blocks_until_release(self):
        fp = FailpointRegistry()
        fp.arm_pause("stop-here")
        progressed = threading.Event()

        def worker():
            fp.hit("stop-here")
            progressed.set()

        t = threading.Thread(target=worker)
        t.start()
        fp.wait_until_paused("stop-here")
        assert not progressed.is_set()
        fp.release("stop-here")
        t.join(timeout=5)
        assert progressed.is_set()

    def test_conditional_pause_lets_earlier_hits_through(self):
        fp = FailpointRegistry()
        passed = []
        fp.arm_pause("nth", when=lambda: len(passed) >= 2)

        def worker():
            for i in range(3):
                fp.hit("nth")
                passed.append(i)

        t = threading.Thread(target=worker)
        t.start()
        fp.wait_until_paused("nth")
        assert passed == [0, 1]  # two hits went through, the third parked
        fp.release("nth")
        t.join(timeout=5)
        assert not t.is_alive()
        assert passed == [0, 1, 2]

    def test_wait_until_paused_requires_arming(self):
        fp = FailpointRegistry()
        with pytest.raises(KeyError):
            fp.wait_until_paused("never-armed")

    def test_disarm_all_releases_paused_workers(self):
        fp = FailpointRegistry()
        fp.arm_pause("stop")
        done = threading.Event()

        def worker():
            fp.hit("stop")
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        fp.wait_until_paused("stop")
        fp.disarm_all()
        t.join(timeout=5)
        assert done.is_set()


class TestDisarmAllCrashRace:
    """Regression: ``disarm_all(crash_paused=True)`` must settle each
    pause point's crash decision *before* waking its worker — a worker
    reading the flag after an unsynchronized write could resume
    normally and miss the simulated crash."""

    def test_all_paused_workers_receive_the_crash(self):
        fp = FailpointRegistry()
        names = [f"stop-{i}" for i in range(4)]
        for name in names:
            fp.arm_pause(name)
        outcomes: dict[str, str] = {}
        lock = threading.Lock()

        def worker(name):
            try:
                fp.hit(name)
                result = "resumed"
            except SimulatedCrash:
                result = "crashed"
            with lock:
                outcomes[name] = result

        threads = [threading.Thread(target=worker, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for name in names:
            fp.wait_until_paused(name)
        fp.disarm_all(crash_paused=True)
        for t in threads:
            t.join(timeout=5)
        assert outcomes == {name: "crashed" for name in names}

    def test_rearm_after_disarm_all_installs_a_fresh_point(self):
        fp = FailpointRegistry()
        fp.arm_pause("stop")
        crashed = threading.Event()

        def first_worker():
            try:
                fp.hit("stop")
            except SimulatedCrash:
                crashed.set()

        t1 = threading.Thread(target=first_worker)
        t1.start()
        fp.wait_until_paused("stop")
        fp.disarm_all(crash_paused=True)
        t1.join(timeout=5)
        assert crashed.is_set()

        # The same name re-armed afterwards must not inherit the crash.
        fp.arm_pause("stop")
        resumed = threading.Event()

        def second_worker():
            fp.hit("stop")
            resumed.set()

        t2 = threading.Thread(target=second_worker)
        t2.start()
        fp.wait_until_paused("stop")
        fp.release("stop")
        t2.join(timeout=5)
        assert resumed.is_set()

    def test_concurrent_hit_and_crash_disarm_never_loses_the_outcome(self):
        """Stress the handoff: a worker racing into the pause point
        against ``disarm_all(crash_paused=True)`` either crashes (it
        parked in time) or runs through unarmed — it never hangs and
        never resumes from the pause without the crash."""
        for _ in range(50):
            fp = FailpointRegistry()
            point = fp.arm_pause("race")
            outcome = []

            def worker():
                try:
                    fp.hit("race")
                    outcome.append("ran")
                except SimulatedCrash:
                    outcome.append("crashed")

            t = threading.Thread(target=worker)
            t.start()
            fp.disarm_all(crash_paused=True)
            t.join(timeout=5)
            assert not t.is_alive()
            assert outcome in (["ran"], ["crashed"])
            if outcome == ["ran"]:
                # "ran" is legal only when the hit happened after the
                # disarm emptied the registry — i.e. the worker never
                # actually parked at the point.
                assert not point.reached.is_set()


class TestCallbackFailpoints:
    def test_callback_runs_on_hit(self):
        fp = FailpointRegistry()
        calls = []
        fp.arm_callback("cb", lambda: calls.append(1))
        fp.hit("cb")
        fp.hit("cb")
        assert calls == [1, 1]
