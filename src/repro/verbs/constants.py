"""Enumerations mirroring the libibverbs constants Collie's search space uses."""

import enum


class QPType(enum.Enum):
    """Transport type of a queue pair.

    The three standard types exposed by the verbs API.  Collie's transport
    dimension enumerates all of them (paper §4, Dimension 3).
    """

    RC = "RC"  #: Reliable Connection — acked, ordered, supports 1-sided ops.
    UC = "UC"  #: Unreliable Connection — unacked, supports SEND and WRITE.
    UD = "UD"  #: Unreliable Datagram — unacked, SEND/RECV only, 1 MTU max.

    #: Members compare by identity, so identity hashing agrees with
    #: ``==`` and skips ``Enum.__hash__``'s Python frame (workload
    #: descriptors and category keys hash these on every evaluation).
    __hash__ = object.__hash__


class Opcode(enum.Enum):
    """Work-request opcode for the send queue."""

    SEND = "SEND"
    WRITE = "WRITE"
    READ = "READ"
    FETCH_ADD = "FETCH_ADD"  #: 8-byte atomic fetch-and-add (RC only).
    CMP_SWAP = "CMP_SWAP"  #: 8-byte atomic compare-and-swap (RC only).

    #: Identity hashing, as :class:`QPType`.
    __hash__ = object.__hash__

    @property
    def is_one_sided(self) -> bool:
        """Whether the opcode bypasses the remote CPU and recv queue."""
        return self in (
            Opcode.WRITE, Opcode.READ, Opcode.FETCH_ADD, Opcode.CMP_SWAP,
        )

    @property
    def is_atomic(self) -> bool:
        return self in (Opcode.FETCH_ADD, Opcode.CMP_SWAP)

    @property
    def consumes_remote_recv_wqe(self) -> bool:
        """SEND consumes a pre-posted receive WQE on the responder."""
        return self is Opcode.SEND


#: Opcodes each transport type supports (verbs spec).
SUPPORTED_OPCODES = {
    QPType.RC: (
        Opcode.SEND, Opcode.WRITE, Opcode.READ,
        Opcode.FETCH_ADD, Opcode.CMP_SWAP,
    ),
    QPType.UC: (Opcode.SEND, Opcode.WRITE),
    QPType.UD: (Opcode.SEND,),
}

#: Atomic operands are always exactly 8 bytes (verbs spec).
ATOMIC_BYTES = 8


class QPState(enum.Enum):
    """Queue-pair state machine (verbs spec §10.3)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  #: Ready To Receive.
    RTS = "RTS"  #: Ready To Send.
    SQD = "SQD"  #: Send Queue Drained.
    SQE = "SQE"  #: Send Queue Error (UC/UD only).
    ERR = "ERR"


#: Legal modify_qp transitions.  A transition not listed raises
#: :class:`repro.verbs.exceptions.InvalidStateError`.  Any state may move
#: to ERR or RESET, encoded separately in ``QueuePair.modify``.
QP_TRANSITIONS = {
    QPState.RESET: (QPState.INIT,),
    QPState.INIT: (QPState.INIT, QPState.RTR),
    QPState.RTR: (QPState.RTS, QPState.SQD),
    QPState.RTS: (QPState.RTS, QPState.SQD),
    QPState.SQD: (QPState.RTS,),
    QPState.SQE: (QPState.RTS,),
    QPState.ERR: (),
}


class AccessFlags(enum.IntFlag):
    """Memory-region access permissions (``IBV_ACCESS_*``)."""

    NONE = 0
    LOCAL_WRITE = 1
    REMOTE_WRITE = 2
    REMOTE_READ = 4
    REMOTE_ATOMIC = 8

    @classmethod
    def all_remote(cls) -> "AccessFlags":
        """Convenience union granting every remote right."""
        return (
            cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ
            | cls.REMOTE_ATOMIC
        )


class SendFlags(enum.IntFlag):
    """Per-work-request send flags (``IBV_SEND_*``)."""

    NONE = 0
    SIGNALED = 1
    FENCE = 2
    INLINE = 4


class WCStatus(enum.Enum):
    """Work-completion status codes."""

    SUCCESS = "SUCCESS"
    LOC_LEN_ERR = "LOC_LEN_ERR"
    LOC_PROT_ERR = "LOC_PROT_ERR"
    REM_ACCESS_ERR = "REM_ACCESS_ERR"
    REM_INV_REQ_ERR = "REM_INV_REQ_ERR"
    RNR_RETRY_EXC_ERR = "RNR_RETRY_EXC_ERR"
    WR_FLUSH_ERR = "WR_FLUSH_ERR"


class WCOpcode(enum.Enum):
    """Work-completion opcode, mirroring the originating operation."""

    SEND = "SEND"
    RDMA_WRITE = "RDMA_WRITE"
    RDMA_READ = "RDMA_READ"
    RECV = "RECV"
    FETCH_ADD = "FETCH_ADD"
    CMP_SWAP = "CMP_SWAP"


class MTU(enum.IntEnum):
    """Path MTU values the verbs API accepts (``IBV_MTU_*``).

    RoCEv2 payload MTUs; the paper's anomalies are often MTU-sensitive
    (e.g. #3 and #14 disagree on whether a small or large MTU is safe).
    """

    MTU_256 = 256
    MTU_512 = 512
    MTU_1024 = 1024
    MTU_2048 = 2048
    MTU_4096 = 4096

    @classmethod
    def from_bytes(cls, value: int) -> "MTU":
        """Return the MTU enum for an exact byte value.

        Raises ``ValueError`` for non-standard sizes so configuration typos
        fail loudly rather than silently rounding.
        """
        for mtu in cls:
            if int(mtu) == value:
                return mtu
        raise ValueError(f"{value} is not a valid RDMA path MTU")


#: Bytes of Global Routing Header prepended to every UD message delivered
#: into a receive buffer (verbs spec: UD recv buffers need 40 extra bytes).
GRH_BYTES = 40

#: RoCEv2 per-packet header overhead on the wire: Ethernet (14) + IPv4 (20)
#: + UDP (8) + BTH (12) + iCRC (4) + FCS (4) + preamble/IPG (20).
ROCE_HEADER_BYTES = 82

#: Bytes of an ACK packet on the wire for reliable transports.
ACK_WIRE_BYTES = ROCE_HEADER_BYTES + 4
