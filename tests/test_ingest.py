"""Two-process ingest: ``build_dataset`` against the sequential reference,
the helper process's errors and deaths, and entries skipped unread."""

import contextlib
import hashlib
import importlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import reference_build_dataset
from toy import midi_track, write_toy_corpus
from ttvae import cli, corpus
from ttvae.corpus import (
    MAX_MIDI_BYTES,
    MAX_SONG_BARS,
    _corpus_entry,
    _ingest_file,
    _split_point,
    build_dataset,
    save_dataset,
)
from ttvae.midi import Score, write_midi

ROOT = Path(__file__).resolve().parents[1]


def song_bytes(bars=8, shift=0, tracks=2):
    melody = [(60 + shift + (i % 5), i, 1.0) for i in range(bars * 4)]
    bass = [(36 + shift + (i % 3), i * 2, 2.0) for i in range(bars * 2)]
    score = Score(tracks=[midi_track(melody, "melody", 0),
                          midi_track(bass, "bass", 1)][:tracks])
    return write_midi(score)


GOOD = [song_bytes(8 + 4 * (i % 3), shift=i % 7) for i in range(17)]
BAD = {
    "unreadable": b"not midi at all",
    "truncated": song_bytes(12)[:150],
    "one track": song_bytes(8, tracks=1),
}


def write_corpus(directory: Path, contents: list[bytes]) -> None:
    for i, data in enumerate(contents):
        (directory / f"f{i:02d}.mid").write_bytes(data)


def digests(dataset, path: Path) -> tuple[str, str]:
    save_dataset(dataset, path)
    sidecar = path.with_name(path.name + ".json")
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(sidecar.read_bytes()).hexdigest())


def assert_equals_reference(directory: Path, tmp_path: Path) -> None:
    built = digests(build_dataset(directory), tmp_path / "built.ds")
    assert built == digests(reference_build_dataset(directory),
                            tmp_path / "reference.ds")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process ``os.fork`` starts during the test."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestEqualsReference:
    def test_toy_corpus(self, tmp_path, forks):
        corpus_dir = tmp_path / "toy"
        corpus_dir.mkdir()
        write_toy_corpus(corpus_dir)
        assert_equals_reference(corpus_dir, tmp_path)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_benchmark_corpus_with_three_four_regions(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        gen = importlib.import_module("gen")
        workloads = importlib.import_module("workloads")
        props = gen.write_corpus(tmp_path, 3, workloads.SPECS["ingest"])
        assert props["bars_3_4"] > 0 and props["expected_skips"] == 3
        largest = max(p.stat().st_size for p in (tmp_path / "midi").iterdir())
        assert largest * 100 < MAX_MIDI_BYTES
        built = build_dataset(tmp_path / "midi")
        assert len(built) == props["fragments"]
        assert any("not in 4/4" in w for w in built.meta["warnings"])
        assert_equals_reference(tmp_path / "midi", tmp_path)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 17])
    def test_good_files(self, tmp_path, count, forks):
        write_corpus(tmp_path, GOOD[:count])
        assert_equals_reference(tmp_path, tmp_path)
        assert len(forks) == (count >= 2)
        assert_reaped(forks)

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("count", [1, 2, 3, 17])
    def test_bad_file_in_each_half(self, tmp_path, count, kind):
        # The split leaves both runs non-empty, so the first file is the
        # caller's and, with two or more, the last is the helper's.
        for place in {0, count - 1}:
            contents = list(GOOD[:count])
            contents[place] = BAD[kind]
            directory = tmp_path / f"at{place}"
            directory.mkdir()
            write_corpus(directory, contents)
            assert_equals_reference(directory, tmp_path)
            assert len(build_dataset(directory).meta["skips"]) == 1

    def test_bad_files_on_both_sides_of_the_split(self, tmp_path):
        contents = list(GOOD)
        contents[:3] = BAD.values()
        contents[-3:] = BAD.values()
        write_corpus(tmp_path, contents)
        split = _split_point([size for _, size, _ in map(
            _corpus_entry, sorted(tmp_path.glob("*.mid")))])
        assert 3 <= split <= len(contents) - 3
        assert_equals_reference(tmp_path, tmp_path)


class TestSplitPoint:
    def test_balances_bytes(self):
        assert _split_point([1, 1]) == 1
        assert _split_point([10, 1, 1, 1, 1]) == 1
        assert _split_point([1, 1, 1, 1, 10]) == 4
        assert _split_point([3, 3, 3, 3]) == 2
        assert _split_point([0, 0, 0]) in (1, 2)

    def test_both_runs_non_empty(self):
        for weights in ([5, 0], [0, 5], [0, 0, 9], [9, 0, 0]):
            assert 1 <= _split_point(weights) < len(weights)


def failing_on_last(error, parent_pid):
    """An ``_ingest_file`` that raises ``error`` on the last file, in the
    helper process only."""

    def ingest(entry, *args):
        if os.getpid() != parent_pid and entry[0].name == "f16.mid":
            raise error
        return _ingest_file(entry, *args)

    return ingest


class Unpicklable(Exception):
    def __init__(self, message, detail):
        super().__init__(f"{message} ({detail})")


class TestHelperFailures:
    def test_exception_is_raised_with_its_message(self, tmp_path, monkeypatch, forks):
        write_corpus(tmp_path, GOOD)
        monkeypatch.setattr(corpus, "_ingest_file", failing_on_last(
            ValueError("bad thing in f16"), os.getpid()))
        with pytest.raises(ValueError, match="bad thing in f16"):
            build_dataset(tmp_path)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_unpicklable_exception_keeps_type_name_and_message(
            self, tmp_path, monkeypatch):
        write_corpus(tmp_path, GOOD)
        monkeypatch.setattr(corpus, "_ingest_file", failing_on_last(
            Unpicklable("odd failure", 7), os.getpid()))
        with pytest.raises(RuntimeError, match=r"Unpicklable: odd failure \(7\)"):
            build_dataset(tmp_path)

    def test_sigkill_raises_instead_of_hanging(self, tmp_path, monkeypatch, forks):
        write_corpus(tmp_path, GOOD)
        parent = os.getpid()

        def ingest(entry, *args):
            if os.getpid() != parent and entry[0].name == "f14.mid":
                os.kill(os.getpid(), signal.SIGKILL)
            return _ingest_file(entry, *args)

        monkeypatch.setattr(corpus, "_ingest_file", ingest)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="killed by SIGKILL"):
            build_dataset(tmp_path)
        assert time.perf_counter() - began < 10
        assert_reaped(forks)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_caller_half_raising_reaps_the_helper(self, tmp_path, monkeypatch,
                                                  forks, error):
        write_corpus(tmp_path, GOOD)
        parent = os.getpid()

        def ingest(entry, *args):
            if os.getpid() == parent and entry[0].name == "f01.mid":
                raise error()
            return _ingest_file(entry, *args)

        monkeypatch.setattr(corpus, "_ingest_file", ingest)
        with pytest.raises(error):
            build_dataset(tmp_path)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_helper_finishing_first_waits_for_the_caller(
            self, tmp_path, monkeypatch, forks):
        # The helper's one message (27 rolls, about 150 KiB) is larger
        # than a pipe buffer, so the helper blocks on it until the slowed
        # caller has mapped its own half and reads.  A caller that waited for
        # the helper before reading would wait forever: the alarm ends that.
        write_corpus(tmp_path, GOOD)
        parent = os.getpid()

        def ingest(entry, *args):
            if os.getpid() == parent:
                time.sleep(0.05)
            return _ingest_file(entry, *args)

        def deadlocked(signum, frame):
            raise TimeoutError("the caller and the helper wait on each other")

        monkeypatch.setattr(corpus, "_ingest_file", ingest)
        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(30)
        try:
            assert_equals_reference(tmp_path, tmp_path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_skips_are_not_helper_failures(self, tmp_path, forks):
        write_corpus(tmp_path, [BAD["unreadable"]] * 4)
        dataset = build_dataset(tmp_path)
        assert len(dataset) == 0
        assert [s["file"] for s in dataset.meta["skips"]] == [
            "f00.mid", "f01.mid", "f02.mid", "f03.mid"]
        assert_reaped(forks)


FIFO_PROBE = """
import sys, time
from ttvae import build_dataset
began = time.perf_counter()
dataset = build_dataset(sys.argv[1])
print(round(time.perf_counter() - began, 3))
for skip in dataset.meta["skips"]:
    print(skip["file"], "|", skip["reason"])
print(len(dataset))
"""


class TestEntriesSkippedUnread:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_is_skipped_without_blocking(self, tmp_path):
        (tmp_path / "a.mid").write_bytes(GOOD[0])
        os.mkfifo(tmp_path / "zz.mid")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen([sys.executable, "-c", FIFO_PROBE, str(tmp_path)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=20)
        finally:
            # A helper blocked on the FIFO would outlive a killed probe.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 0, err
        elapsed, skip, count = out.splitlines()
        assert float(elapsed) < 1.0
        assert skip == "zz.mid | not a regular file"
        assert int(count) == 2

    def test_directory_is_skipped(self, tmp_path):
        (tmp_path / "a.mid").write_bytes(GOOD[0])
        (tmp_path / "b.mid").mkdir()
        dataset = build_dataset(tmp_path)
        assert dataset.meta["skips"] == [
            {"file": "b.mid", "reason": "not a regular file"}]
        assert len(dataset) == 2

    def test_oversize_file_is_skipped_unread(self, tmp_path, monkeypatch):
        with open(tmp_path / "big.mid", "wb") as fh:
            fh.truncate(MAX_MIDI_BYTES + 1)  # sparse: no bytes written
        opened = []
        monkeypatch.setattr(corpus, "open", lambda path, *a: opened.append(path),
                            raising=False)
        dataset = build_dataset(tmp_path)
        assert opened == []
        (skip,) = dataset.meta["skips"]
        assert skip["file"] == "big.mid"
        assert f"cap of {MAX_MIDI_BYTES} bytes" in skip["reason"]

    def test_file_grown_after_the_stat_is_read_only_to_the_cap(
            self, tmp_path, monkeypatch):
        path = tmp_path / "grows.mid"
        path.write_bytes(GOOD[0])
        entry = _corpus_entry(path)
        assert entry == (path, len(GOOD[0]), None)
        with open(path, "r+b") as fh:
            fh.truncate(MAX_MIDI_BYTES + 4096)
        got = []

        class Recording:
            def __init__(self, *args):
                self.fh = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, *args):
                got.append(len(data := self.fh.read(*args)))
                return data

        monkeypatch.setattr(corpus, "open", Recording, raising=False)
        song, reason, warnings = _ingest_file(entry, None, None)
        assert got == [MAX_MIDI_BYTES + 1]
        assert song is None and warnings == []
        assert f"cap of {MAX_MIDI_BYTES} bytes" in reason

    def test_cap_is_far_above_the_corpora_and_sized_from_the_bar_cap(self, tmp_path):
        assert MAX_MIDI_BYTES == MAX_SONG_BARS * 2048
        write_toy_corpus(tmp_path)
        largest = max(p.stat().st_size for p in tmp_path.glob("*.mid"))
        assert largest * 100 < MAX_MIDI_BYTES

    def test_oversize_skip_in_preprocess_report(self, tmp_path, capsys):
        corpus_dir = tmp_path / "midi"
        corpus_dir.mkdir()
        (corpus_dir / "a.mid").write_bytes(GOOD[0])
        with open(corpus_dir / "big.mid", "wb") as fh:
            fh.truncate(MAX_MIDI_BYTES + 1)
        code = cli.main(["preprocess", "--in", str(corpus_dir),
                         "--out", str(tmp_path / "out.ds")])
        assert code == 0
        out = capsys.readouterr().out
        assert "(1 skipped)" in out
        assert f"skipped big.mid: larger than the cap of {MAX_MIDI_BYTES} bytes" in out


class TestBenchmarkTracer:
    def test_installs_on_this_source_and_switches_off(self, tmp_path, monkeypatch):
        # The benchmark's tracer wraps program functions by name, so a
        # renamed function fails here rather than in a traced benchmark run.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        spans = importlib.import_module("spans")
        originals = dict(vars(corpus))
        tracer = spans.Tracer()
        switch = spans.install(tracer)
        try:
            assert corpus.segment is not originals["segment"]
            write_corpus(tmp_path, GOOD[:1])
            corpus.build_dataset(tmp_path)
        finally:
            switch(False)
        assert vars(corpus) == originals
        metrics = tracer.metrics(1, 0.0)
        for span in ("corpus.build", "corpus.extract", "corpus.key",
                     "corpus.segment", "midi.parse", "tension.curves"):
            assert metrics[f"{span}.calls"] == 1, span
