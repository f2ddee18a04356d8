"""Read-ahead inside a worker (DESIGN.md §13): store reads overlap decode.

No wall-clock assertions: timing is checked on a fake clock, everything
else on counts, CRCs and record sequences.
"""

import sys
import threading
import zlib
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import FailurePolicy, FaultPlan, FaultSite
from repro.data import dataset as dataset_module
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset
from repro.datasets import filestore
from repro.datasets.filestore import SimulatedRemoteStore
from repro.datasets.synthetic import SyntheticCoco, SyntheticImageNet
from repro.errors import CodecError, DataLoaderError
from repro.tensor.tensor import Tensor
from repro.transforms.compose import Compose
from repro.transforms.vision import (
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    Resize,
    ToTensor,
)
from repro.workloads import SMOKE, build_od_pipeline


#: Brings variously sized test images to one shape so they collate.
SIZED = Compose([RandomResizedCrop(32, seed=1), ToTensor()])


class FakeClock:
    """Stands in for the ``time`` module inside ``filestore``."""

    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


class RecordingStore(SimulatedRemoteStore):
    """Logs every submitted read: who submitted it, its interval on the
    wire, and how many bytes were already in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (thread id, wire start, wire end, reads in flight before, bytes)
        self.submitted = []
        self._in_flight = defaultdict(list)

    def _delay(self, blob):
        delay = self.base_latency_s
        if self.bandwidth_mb_s > 0:
            delay += (len(blob) / 1e6) / self.bandwidth_mb_s
        return delay

    def begin_read(self, index, after=None):
        handle = super().begin_read(index, after)
        me = threading.get_ident()
        self.submitted.append(
            (
                me,
                handle.ready_at - self._delay(handle.blob),
                handle.ready_at,
                len(self._in_flight[me]),
                sum(self._in_flight[me]),
            )
        )
        self._in_flight[me].append(len(handle.blob))
        return handle

    def finish_read(self, handle):
        self._in_flight[threading.get_ident()].remove(len(handle.blob))
        return super().finish_read(handle)

    def assert_one_read_on_the_wire_per_thread(self):
        last_end = {}
        for thread, start, end, _, _ in self.submitted:
            assert start >= last_end.get(thread, 0.0) - 1e-9
            last_end[thread] = end


class BlockingOnly:
    """A store without ``begin_read``: the strictly serial reference."""

    def __init__(self, store):
        self._store = store

    def __getitem__(self, index):
        return self._store[index]

    def __len__(self):
        return len(self._store)


# -- (a) virtual time ------------------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(filestore, "time", fake)
    return fake


def stub_dataset(store, clock, decode_s):
    """Dataset whose loader costs a fixed ``decode_s`` of fake time."""

    def loader(blob):
        clock.now += decode_s
        return blob

    return BlobImageDataset(store, loader=loader)


class TestVirtualTime:
    N = 8
    BLOB = b"x" * 1000

    @pytest.mark.parametrize(
        "read_s, decode_s", [(0.002, 0.010), (0.010, 0.002), (0.005, 0.005)]
    )
    def test_batch_costs_first_read_plus_longer_chain(self, clock, read_s, decode_s):
        store = RecordingStore(
            [self.BLOB] * self.N, base_latency_s=read_s, bandwidth_mb_s=0
        )
        ds = stub_dataset(store, clock, decode_s)
        began = clock.now
        samples = ds.__getitems__(list(range(self.N)))
        cost = clock.now - began
        assert [blob for blob, _ in samples] == [self.BLOB] * self.N
        # The first read and the last decode overlap nothing; between
        # them the slower of the two chains sets the pace.
        expected = read_s + (self.N - 1) * max(read_s, decode_s) + decode_s
        assert cost == pytest.approx(expected)
        assert cost < self.N * (read_s + decode_s)
        store.assert_one_read_on_the_wire_per_thread()
        assert store.stats == {"reads": self.N, "bytes_read": self.N * len(self.BLOB)}

    def test_blocking_reads_cost_the_full_sum(self, clock):
        store = SimulatedRemoteStore(
            [self.BLOB] * self.N, base_latency_s=0.004, bandwidth_mb_s=1.0
        )
        ds = stub_dataset(store, clock, 0.010)
        began = clock.now
        for index in range(self.N):
            ds[index]
        # 4 ms + 1000 B at 1 MB/s = 5 ms per read, nothing overlapped.
        assert clock.now - began == pytest.approx(self.N * (0.005 + 0.010))

    def test_byte_budget_bounds_reads_in_flight(self, clock, monkeypatch):
        monkeypatch.setattr(dataset_module, "READ_AHEAD_BYTES", 2500)
        sizes = [1000, 1000, 1000, 1000, 9000, 1000, 200, 200, 200, 200, 200, 1000]
        blobs = [b"y" * size for size in sizes]
        store = RecordingStore(blobs, base_latency_s=0.001, bandwidth_mb_s=1.0)
        ds = stub_dataset(store, clock, 0.0005)
        samples = ds.__getitems__(list(range(len(blobs))))
        assert [blob for blob, _ in samples] == blobs
        before = [(reads, nbytes) for _, _, _, reads, nbytes in store.submitted]
        # A read is submitted only under the budget (what is in flight
        # exceeds it by at most the one blob that crossed it) ...
        assert all(nbytes < 2500 or reads == 1 for reads, nbytes in before)
        # ... except behind a single over-budget blob: the 9000-byte one
        # does not stop the read after it ...
        assert (1, 9000) in before
        # ... and the budget, not the batch, is what stops submission.
        assert max(reads for reads, _ in before) < len(blobs) - 1
        assert max(nbytes for reads, nbytes in before if reads > 1) >= 2000
        store.assert_one_read_on_the_wire_per_thread()

    def test_chain_waits_for_the_budget_not_for_the_decode(self, clock, monkeypatch):
        # Budget of one blob: read k+1 is submitted when read k is
        # consumed, i.e. exactly one read ahead.
        monkeypatch.setattr(dataset_module, "READ_AHEAD_BYTES", 1)
        store = RecordingStore([self.BLOB] * 4, base_latency_s=0.010, bandwidth_mb_s=0)
        ds = stub_dataset(store, clock, 0.004)
        began = clock.now
        ds.__getitems__([0, 1, 2, 3])
        # Each later read starts as the previous decode starts: 10 ms
        # read, 4 ms of it hidden by the decode.
        assert clock.now - began == pytest.approx(0.010 + 3 * 0.010 + 0.004)
        assert [reads for _, _, _, reads, _ in store.submitted] == [0, 1, 1, 1]

    def test_workers_keep_one_read_on_the_wire_each(self, small_blobs):
        store = RecordingStore(small_blobs * 2, base_latency_s=0.0005, bandwidth_mb_s=50)
        ds = BlobImageDataset(store, transform=SIZED)
        loader = DataLoader(ds, batch_size=4, num_workers=2, batched_execution=False)
        assert sum(1 for _ in loader) == 6
        assert len({thread for thread, _, _, _, _ in store.submitted}) == 2
        store.assert_one_read_on_the_wire_per_thread()
        assert store.stats["reads"] == 24

    def test_single_process_loader_stays_serial(self, small_blobs):
        store = RecordingStore(small_blobs, base_latency_s=0, bandwidth_mb_s=0)
        ds = BlobImageDataset(store, transform=SIZED)
        for _ in DataLoader(ds, batch_size=4, num_workers=0, batched_execution=False):
            pass
        # Every read was submitted with nothing else in flight.
        assert [reads for _, _, _, reads, _ in store.submitted] == [0] * 12


# -- store accounting (satellite bugfix) -----------------------------------------------


class TestStoreAccounting:
    def test_concurrent_reads_are_counted_exactly(self):
        store = SimulatedRemoteStore([b"abc"] * 16, base_latency_s=0, bandwidth_mb_s=0)

        def read_many():
            for i in range(2000):
                store[i % 16]

        threads = [threading.Thread(target=read_many) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # provoke lost updates, if any can happen
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.stats == {"reads": 16000, "bytes_read": 48000}

    def test_out_of_range_index_consumes_no_fault(self):
        plan = FaultPlan(seed=0, sites=(FaultSite(kind="transient", attempts=1),))
        store = SimulatedRemoteStore(
            [b"abc"], base_latency_s=0, bandwidth_mb_s=0, fault_plan=plan
        )
        with pytest.raises(IndexError):
            store[5]
        assert plan.injected == []
        with pytest.raises(IOError):  # the one transient attempt is still there
            store[0]
        assert store.stats == {"reads": 0, "bytes_read": 0}

    def test_dropped_handle_costs_nothing(self):
        plan = FaultPlan(seed=0, sites=(FaultSite(kind="corrupt", sample_index=1),))
        store = SimulatedRemoteStore(
            [b"abcd", b"efgh"], base_latency_s=0, bandwidth_mb_s=0, fault_plan=plan
        )
        first = store.begin_read(0)
        store.begin_read(1, after=first)  # never finished
        assert store.finish_read(first) == b"abcd"
        assert plan.injected == []
        assert store.stats == {"reads": 1, "bytes_read": 4}


# -- (b) parity with the in-memory per-sample oracle ---------------------------------

IMAGES = SyntheticImageNet(24, seed=5)


def ic_dataset(blobs, log, random_ops):
    # Random transforms draw from per-worker streams, so which worker
    # takes a batch shows in the pixels: only a static schedule can
    # carry them through a CRC comparison.
    head = (
        [RandomResizedCrop(32, seed=11), RandomHorizontalFlip(seed=12)]
        if random_ops
        else [Resize((32, 32))]
    )
    chain = Compose(
        head + [ToTensor(), Normalize((0.5, 0.5, 0.5), (0.25, 0.25, 0.25))],
        log_transform_elapsed_time=log,
    )
    return BlobImageDataset(blobs, labels=IMAGES.labels, transform=chain, log_file=log)


def crc(value):
    """CRC over every array leaf of a batch, in traversal order."""
    if isinstance(value, Tensor):
        value = value.numpy()
    if isinstance(value, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(value).data)
    if isinstance(value, dict):
        return tuple((key, crc(item)) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(crc(item) for item in value)
    return value


def traced_epoch(blobs, log_path, **knobs):
    """(batch CRCs, worker records as {worker: [(kind, name, batch)]}),
    each worker's records in start-time order."""
    from repro.core.lotustrace import open_trace_log, parse_trace_file

    sink = open_trace_log(str(log_path))
    loader = DataLoader(
        ic_dataset(blobs, sink, random_ops=knobs["scheduler"] == "static"),
        batch_size=4,
        shuffle=True,
        seed=3,
        log_file=sink,
        batched_execution=False,
        **knobs,
    )
    crcs = [crc(batch) for batch in loader]
    loader.close()
    sink.close()
    per_worker = defaultdict(list)
    for record in sorted(parse_trace_file(str(log_path)), key=lambda r: r.start_ns):
        if record.kind in ("op", "batch_preprocessed", "batch_transport"):
            per_worker[record.worker_id].append(
                (record.kind, record.name, record.batch_id)
            )
    return crcs, dict(per_worker)


@pytest.mark.parametrize("num_workers", [0, 2])
@pytest.mark.parametrize("scheduler", ["static", "stealing"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parity_with_in_memory_oracle(backend, scheduler, num_workers, tmp_path):
    if num_workers == 0 and scheduler != "static":
        pytest.skip("non-static schedulers need workers")
    knobs = dict(num_workers=num_workers, worker_backend=backend, scheduler=scheduler)
    store = SimulatedRemoteStore(IMAGES.blobs, base_latency_s=0.0005, bandwidth_mb_s=50)
    got, got_records = traced_epoch(store, tmp_path / "remote.log", **knobs)
    want, want_records = traced_epoch(IMAGES.blobs, tmp_path / "memory.log", **knobs)
    assert got == want
    if scheduler == "static":
        # Same records, in the same order, from the same worker.
        assert got_records == want_records
    else:
        # Which worker takes a batch is a race under stealing; what is
        # recorded for the epoch is not.
        def flat(records):
            return sorted(r for rs in records.values() for r in rs)

        assert flat(got_records) == flat(want_records)
    if backend == "thread":
        assert store.stats["reads"] == len(IMAGES.blobs)


# -- (c) faults through the read-ahead path ----------------------------------------------


def fault_epoch(plan, read_ahead, **knobs):
    """Run one 2-worker epoch over a faulty store; read-ahead or blocking."""
    store = SimulatedRemoteStore(
        IMAGES.blobs, base_latency_s=0.0002, bandwidth_mb_s=0, fault_plan=plan
    )
    ds = BlobImageDataset(
        store if read_ahead else BlockingOnly(store),
        labels=IMAGES.labels,
        transform=SIZED,
    )
    loader = DataLoader(
        ds,
        batch_size=4,
        num_workers=2,
        batched_execution=False,
        worker_timeout_s=30,
        **knobs,
    )
    error = None
    crcs = []
    try:
        crcs = [crc(batch) for batch in loader]
    except DataLoaderError as exc:
        error = type(exc).__name__
    loader.close()
    stats = loader.fault_stats
    return dict(
        crcs=crcs,
        error=error,
        delivered=stats.delivered_samples,
        skipped=stats.skipped_indices,
        retried=stats.retried_samples,
        restarts=stats.worker_restarts,
        injected=sorted(plan.injected),
        reads=store.stats["reads"],
    )


RETRY = FailurePolicy(mode="retry", max_retries=2, backoff_base_s=0.001)
FAULT_CASES = {
    "transient-retry": (
        lambda: FaultPlan(seed=2, transient_rate=0.2),
        dict(failure_policy=RETRY),
    ),
    "corrupt-skip": (
        lambda: FaultPlan(seed=2, corrupt_rate=0.15),
        dict(failure_policy="skip_sample"),
    ),
    "transient-raise": (
        lambda: FaultPlan(seed=0, sites=(FaultSite(kind="transient", sample_index=9),)),
        {},
    ),
    "crash-restart": (
        lambda: FaultPlan(seed=0, sites=(FaultSite(kind="crash", sample_index=9),)),
        dict(max_worker_restarts=1, hang_timeout_s=10.0),
    ),
    "hang-restart": (
        lambda: FaultPlan(
            seed=0, sites=(FaultSite(kind="hang", sample_index=9, hang_s=1.5),)
        ),
        dict(max_worker_restarts=1, hang_timeout_s=0.4),
    ),
}


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_faults_match_the_blocking_path(case):
    make_plan, knobs = FAULT_CASES[case]
    ahead = fault_epoch(make_plan(), read_ahead=True, **knobs)
    blocking = fault_epoch(make_plan(), read_ahead=False, **knobs)
    assert ahead["injected"], "the plan must fire"
    if case == "transient-raise":
        # The epoch dies at the fault; how far the other worker got by
        # then is a race, the failure and the fault log are not.
        assert ahead["error"] == blocking["error"] is not None
        assert ahead["injected"] == blocking["injected"]
        return
    if case == "hang-restart":
        # The woken worker re-reads nothing, but how many reads the
        # replaced incarnation finished before its cancel is a race.
        ahead.pop("reads"), blocking.pop("reads")
    assert ahead == blocking
    assert ahead["error"] is None


def test_decode_error_consumes_no_later_fault():
    blobs = list(IMAGES.blobs[:6])
    blobs[2] = b"not an image"
    plan = FaultPlan(
        seed=0,
        sites=(
            FaultSite(kind="transient", sample_index=3),
            FaultSite(kind="crash", sample_index=4),
        ),
    )
    store = SimulatedRemoteStore(
        blobs, base_latency_s=0, bandwidth_mb_s=0, fault_plan=plan
    )
    ds = BlobImageDataset(store)
    with pytest.raises(CodecError):
        ds.__getitems__([0, 1, 2, 3, 4, 5])
    # Reads 3.. were submitted ahead and dropped: no fault, no count.
    assert plan.injected == []
    assert store.stats["reads"] == 3


# -- (d) a subclass with its own __getitem__ ----------------------------------------------


def test_od_pipeline_behind_a_remote_store_matches_the_oracle():
    coco = SyntheticCoco(SMOKE.od_images, seed=4)
    store = SimulatedRemoteStore(coco.blobs, base_latency_s=0.0005, bandwidth_mb_s=50)
    remote = SimpleNamespace(blobs=store, targets=coco.targets)

    def epoch(dataset):
        bundle = build_od_pipeline(
            dataset=dataset, num_workers=2, seed=4, batched_execution=False
        )
        return [crc(batch) for batch in bundle.loader]

    got = epoch(remote)
    assert got == epoch(coco)
    assert len(got) > 1
    assert store.stats["reads"] == len(coco.blobs)
