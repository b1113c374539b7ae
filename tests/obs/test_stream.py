"""Tail-following a live journal: no record lost, duplicated or torn."""

import gzip
import json
import threading

import pytest

from repro.obs import FlightRecorder, JournalFollower, RunJournal, follow_journal
from repro.core import Collie


def write_line(handle, record):
    handle.write((json.dumps(record) + "\n").encode("utf-8"))
    handle.flush()


class TestTornTail:
    def test_only_terminated_lines_are_consumed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        follower = JournalFollower(path)
        with open(path, "wb") as handle:
            write_line(handle, {"t": "a", "n": 1})
            handle.write(b'{"t": "b", ')  # torn tail: flushed mid-record
            handle.flush()
            assert follower.poll() == [{"t": "a", "n": 1}]
            assert follower.poll() == []  # tail still pending, not an error
            handle.write(b'"n": 2}\n')
            handle.flush()
        assert follower.poll() == [{"t": "b", "n": 2}]
        assert follower.poll() == []

    def test_mid_record_flush_never_splits_a_record(self, tmp_path):
        """A record flushed byte-by-byte arrives exactly once, intact."""
        path = tmp_path / "run.jsonl"
        payload = (json.dumps({"t": "x", "v": "abc"}) + "\n").encode()
        follower = JournalFollower(path)
        seen = []
        with open(path, "wb") as handle:
            for byte in payload:
                handle.write(bytes([byte]))
                handle.flush()
                seen.extend(follower.poll())
        assert seen == [{"t": "x", "v": "abc"}]

    def test_missing_file_polls_empty(self, tmp_path):
        follower = JournalFollower(tmp_path / "not-yet.jsonl")
        assert follower.poll() == []

    def test_completed_bad_line_is_corruption(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"t": "ok"}\nnot json at all\n')
        follower = JournalFollower(path)
        with pytest.raises(ValueError, match="corrupt journal line at byte"):
            follower.poll()


class TestGzipJournal:
    def test_read_whole_at_the_first_poll(self, tmp_path):
        plain = tmp_path / "run.jsonl"
        with open(plain, "wb") as handle:
            for n in range(3):
                write_line(handle, {"n": n})
        zipped = tmp_path / "run.jsonl.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))
        follower = JournalFollower(zipped)
        assert follower.poll() == JournalFollower(plain).poll()
        assert follower.poll() == []
        assert follower.records_seen == 3

    def test_a_truncated_gzip_journal_is_corruption(self, tmp_path):
        zipped = tmp_path / "run.jsonl.gz"
        zipped.write_bytes(gzip.compress(b'{"n": 0}\n' * 50)[:-12])
        with pytest.raises(ValueError, match="corrupt gzip journal"):
            JournalFollower(zipped).poll()


class TestResume:
    def test_offset_resumes_without_loss_or_duplication(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "wb") as handle:
            for n in range(5):
                write_line(handle, {"n": n})
        first = JournalFollower(path)
        head = first.poll()
        assert [r["n"] for r in head] == [0, 1, 2, 3, 4]
        with open(path, "ab") as handle:
            for n in range(5, 8):
                write_line(handle, {"n": n})
        resumed = JournalFollower(path, offset=first.offset)
        assert [r["n"] for r in resumed.poll()] == [5, 6, 7]
        assert resumed.poll() == []

    def test_polling_is_idempotent_between_writes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "wb") as handle:
            write_line(handle, {"n": 0})
        follower = JournalFollower(path)
        assert follower.poll() == [{"n": 0}]
        for _ in range(3):
            assert follower.poll() == []
        assert follower.records_seen == 1


class TestConcurrentWriter:
    TOTAL = 400

    def test_concurrent_appends_arrive_exactly_once_in_order(self, tmp_path):
        """A writer thread appends with adversarial flush splits while the
        follower polls; every record is seen once, in write order."""
        path = tmp_path / "run.jsonl"
        done = threading.Event()

        def writer():
            with open(path, "wb") as handle:
                for n in range(self.TOTAL):
                    payload = (json.dumps({"n": n}) + "\n").encode()
                    # Vary the flush boundary so some polls race a torn
                    # tail, some race a record boundary, some race both.
                    split = n % len(payload)
                    handle.write(payload[:split])
                    handle.flush()
                    handle.write(payload[split:])
                    handle.flush()
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        seen = list(follow_journal(path, poll_interval=0.001, stop=done.is_set))
        thread.join()
        assert [r["n"] for r in seen] == list(range(self.TOTAL))

    def test_follow_stop_after_last_record_drains_fully(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "wb") as handle:
            for n in range(4):
                write_line(handle, {"n": n})
        # stop() is already true on entry; the final drain still yields
        # everything that was written before the flag went up.
        seen = list(follow_journal(path, stop=lambda: True))
        assert [r["n"] for r in seen] == [0, 1, 2, 3]


class TestAgainstRealJournal:
    def test_followed_records_equal_post_hoc_read(self, tmp_path):
        from repro.obs import read_journal

        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        Collie.for_subsystem(
            "H", budget_hours=0.3, seed=3, recorder=recorder
        ).run()
        recorder.close()
        follower = JournalFollower(path)
        assert follower.poll() == read_journal(path)
