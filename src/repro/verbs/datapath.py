"""Functional execution of posted work requests.

This layer really moves bytes between registered memory regions with full
access and bounds checking, generating completions with the statuses real
hardware would produce (including receiver-not-ready handling).  The
traffic tracer (:mod:`repro.core.tracing`) runs a scaled slice of a
workload through it, so a malformed workload shape fails the same way it
would on a real testbed.
"""

from __future__ import annotations

from repro.verbs.constants import (
    GRH_BYTES,
    AccessFlags,
    Opcode,
    QPState,
    QPType,
    WCOpcode,
    WCStatus,
)
from repro.verbs.cq import WorkCompletion
from repro.verbs.exceptions import AccessViolationError
from repro.verbs.fabric import Fabric
from repro.verbs.qp import QPAttributes, QueuePair
from repro.verbs.wr import RecvWorkRequest, SendWorkRequest

_WC_OPCODES = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.WRITE: WCOpcode.RDMA_WRITE,
    Opcode.READ: WCOpcode.RDMA_READ,
    Opcode.FETCH_ADD: WCOpcode.FETCH_ADD,
    Opcode.CMP_SWAP: WCOpcode.CMP_SWAP,
}

#: Per-WQE processing tick of the completion-latency attribution, µs.
#: This is *not* the performance model — :mod:`repro.hardware.model`
#: owns rates and tail distributions — just enough deterministic
#: accounting that every CQE carries a completion latency and
#: head-of-line blocking inside a traced slice is observable.
WQE_TICK_US = 0.5

#: Bytes-proportional term of the attribution, µs per KiB of payload.
US_PER_KB = 0.08


class DataPath:
    """Executes send queues against a fabric, one WQE at a time."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        #: Messages the datapath dropped (UC/UD responder-not-ready).
        self.dropped_messages = 0
        #: qp_num → µs at which that QP's last WQE finished service.
        self._busy_until_us: dict[int, float] = {}
        self._wr_done_us = 0.0

    # -- public API ---------------------------------------------------------

    def process(self, qp: QueuePair, max_wqes: int = None) -> int:
        """Execute up to ``max_wqes`` send WQEs of ``qp``; return the count."""
        executed = 0
        while qp.send_queue and (max_wqes is None or executed < max_wqes):
            wr = qp.send_queue.popleft()
            self._execute(qp, wr)
            executed += 1
        return executed

    def process_all(self, qps: list[QueuePair], rounds: int = 64) -> int:
        """Round-robin execution across QPs until all send queues drain.

        ``rounds`` bounds the loop so a workload that keeps reposting can't
        hang the functional check.
        """
        executed = 0
        for _ in range(rounds):
            progressed = False
            for qp in qps:
                if qp.send_queue:
                    executed += self.process(qp, max_wqes=1)
                    progressed = True
            if not progressed:
                break
        return executed

    # -- execution ------------------------------------------------------------

    def _execute(self, qp: QueuePair, wr: SendWorkRequest) -> None:
        responder = self.fabric.destination_of(qp, wr.ah)
        self._wr_done_us = self._advance(qp, wr.byte_length)
        if wr.opcode is Opcode.SEND:
            status = self._execute_send(qp, wr, responder)
        elif wr.opcode is Opcode.WRITE:
            status = self._execute_write(qp, wr, responder)
        elif wr.opcode is Opcode.READ:
            status = self._execute_read(qp, wr, responder)
        else:
            status = self._execute_atomic(qp, wr, responder)
        self._complete_sender(qp, wr, status)

    def _advance(self, qp: QueuePair, byte_len: int) -> float:
        """Attribute this WQE's completion time on its QP's service clock.

        Service = fixed tick + payload-proportional term; the WQE starts
        only after everything earlier on the same send queue finished,
        so the returned time is queueing-inclusive completion latency.
        """
        service = WQE_TICK_US + (byte_len / 1024.0) * US_PER_KB
        done = self._busy_until_us.get(qp.qp_num, 0.0) + service
        self._busy_until_us[qp.qp_num] = done
        return done

    def _gather(self, qp: QueuePair, wr: SendWorkRequest) -> bytes:
        """Collect the payload described by a local SG list.

        Inline requests carry their bytes in the WQE itself — captured
        at post time, no lkey consulted (``IBV_SEND_INLINE``).
        """
        if wr.inline_payload is not None:
            return wr.inline_payload
        chunks = []
        for entry in wr.sg_list:
            region = qp.pd.regions.lookup_local(
                entry.lkey, entry.addr, entry.length, AccessFlags.NONE
            )
            chunks.append(region.read(entry.addr, entry.length))
        return b"".join(chunks)

    def _scatter_recv(
        self, responder: QueuePair, recv_wr: RecvWorkRequest, payload: bytes
    ) -> WCStatus:
        """Scatter a payload into a consumed receive WQE."""
        if len(payload) > recv_wr.byte_length:
            return WCStatus.LOC_LEN_ERR
        cursor = 0
        for entry in recv_wr.sg_list:
            if cursor >= len(payload):
                break
            take = min(entry.length, len(payload) - cursor)
            region = responder.pd.regions.lookup_local(
                entry.lkey, entry.addr, take, AccessFlags.LOCAL_WRITE
            )
            region.write(entry.addr, payload[cursor : cursor + take])
            cursor += take
        return WCStatus.SUCCESS

    def _take_recv_wqe(self, responder: QueuePair):
        """Pop the next receive WQE: from the SRQ when attached."""
        if responder.srq is not None:
            return responder.srq.take()
        if responder.recv_queue:
            return responder.recv_queue.popleft()
        return None

    def _execute_send(
        self, qp: QueuePair, wr: SendWorkRequest, responder: QueuePair
    ) -> WCStatus:
        payload = self._gather(qp, wr)
        if qp.qp_type is QPType.UD:
            # UD prepends a 40-byte GRH inside the receive buffer.
            payload = b"\x00" * GRH_BYTES + payload
        recv_wr = self._take_recv_wqe(responder)
        if recv_wr is None:
            return self._responder_not_ready(qp, responder)
        status = self._scatter_recv(responder, recv_wr, payload)
        self._complete_receiver(responder, recv_wr, status, len(payload))
        return status if status is WCStatus.SUCCESS else WCStatus.REM_INV_REQ_ERR

    def _responder_not_ready(
        self, qp: QueuePair, responder: QueuePair
    ) -> WCStatus:
        """Handle a SEND arriving with an empty receive queue.

        RC retries ``rnr_retry`` times and then fails the WR and errors the
        QP; UC and UD silently drop the message (unreliable transports).
        The functional layer has no timers, so "retries exhausted" collapses
        to an immediate decision based on the configured retry count: the
        receive queue cannot refill mid-check in synchronous execution.
        """
        if qp.qp_type is QPType.RC:
            qp.modify(QPAttributes(state=QPState.ERR))
            return WCStatus.RNR_RETRY_EXC_ERR
        self.dropped_messages += 1
        return WCStatus.SUCCESS

    def _execute_write(
        self, qp: QueuePair, wr: SendWorkRequest, responder: QueuePair
    ) -> WCStatus:
        payload = self._gather(qp, wr)
        try:
            region = responder.pd.regions.lookup_remote(
                wr.rkey, wr.remote_addr, len(payload), AccessFlags.REMOTE_WRITE
            )
        except AccessViolationError:
            if qp.qp_type is QPType.RC:
                qp.modify(QPAttributes(state=QPState.ERR))
            return WCStatus.REM_ACCESS_ERR
        region.write(wr.remote_addr, payload)
        return WCStatus.SUCCESS

    def _execute_read(
        self, qp: QueuePair, wr: SendWorkRequest, responder: QueuePair
    ) -> WCStatus:
        length = wr.byte_length
        try:
            region = responder.pd.regions.lookup_remote(
                wr.rkey, wr.remote_addr, length, AccessFlags.REMOTE_READ
            )
        except AccessViolationError:
            qp.modify(QPAttributes(state=QPState.ERR))
            return WCStatus.REM_ACCESS_ERR
        payload = region.read(wr.remote_addr, length)
        cursor = 0
        for entry in wr.sg_list:
            region = qp.pd.regions.lookup_local(
                entry.lkey, entry.addr, entry.length, AccessFlags.LOCAL_WRITE
            )
            region.write(entry.addr, payload[cursor : cursor + entry.length])
            cursor += entry.length
        return WCStatus.SUCCESS

    def _execute_atomic(
        self, qp: QueuePair, wr: SendWorkRequest, responder: QueuePair
    ) -> WCStatus:
        """8-byte FETCH_ADD / CMP_SWAP against remote memory.

        The original remote value lands in the requester's SG entry,
        exactly as the verbs spec prescribes.
        """
        from repro.verbs.constants import ATOMIC_BYTES

        try:
            remote = responder.pd.regions.lookup_remote(
                wr.rkey, wr.remote_addr, ATOMIC_BYTES,
                AccessFlags.REMOTE_ATOMIC,
            )
        except AccessViolationError:
            qp.modify(QPAttributes(state=QPState.ERR))
            return WCStatus.REM_ACCESS_ERR
        original = int.from_bytes(
            remote.read(wr.remote_addr, ATOMIC_BYTES), "little"
        )
        if wr.opcode is Opcode.FETCH_ADD:
            updated = (original + wr.compare_add) % (1 << 64)
        else:  # CMP_SWAP
            updated = wr.swap if original == wr.compare_add else original
        remote.write(wr.remote_addr, updated.to_bytes(ATOMIC_BYTES, "little"))
        entry = wr.sg_list[0]
        local = qp.pd.regions.lookup_local(
            entry.lkey, entry.addr, ATOMIC_BYTES, AccessFlags.LOCAL_WRITE
        )
        local.write(entry.addr, original.to_bytes(ATOMIC_BYTES, "little"))
        return WCStatus.SUCCESS

    # -- completions -----------------------------------------------------------

    def _complete_sender(
        self, qp: QueuePair, wr: SendWorkRequest, status: WCStatus
    ) -> None:
        qp.completed_sends += 1
        if wr.signaled or status is not WCStatus.SUCCESS:
            qp.send_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    status=status,
                    opcode=_WC_OPCODES[wr.opcode],
                    byte_len=wr.byte_length,
                    qp_num=qp.qp_num,
                    latency_us=self._wr_done_us,
                )
            )

    def _complete_receiver(
        self,
        responder: QueuePair,
        recv_wr: RecvWorkRequest,
        status: WCStatus,
        byte_len: int,
    ) -> None:
        responder.completed_recvs += 1
        responder.recv_cq.push(
            WorkCompletion(
                wr_id=recv_wr.wr_id,
                status=status,
                opcode=WCOpcode.RECV,
                byte_len=byte_len,
                qp_num=responder.qp_num,
                latency_us=self._wr_done_us,
            )
        )
