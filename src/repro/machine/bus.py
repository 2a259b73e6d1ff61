"""Split-transaction bus with finite bandwidth and occupancy accounting.

The paper's base configuration sustains up to 1.2 GB/s of fetch bandwidth;
several benchmarks saturate it at 16 processors, which is why their MCPI
rises even as miss rates fall (Section 4.1).  We model the bus as a single
shared resource: each transaction occupies it for (bytes / bandwidth)
nanoseconds, and a request issued while the bus is busy is delayed until
the bus frees up.  Occupancy is recorded per transaction kind so Figure 2's
bus-utilization graph can be regenerated.
"""

from __future__ import annotations

import enum


class BusTransactionKind(str, enum.Enum):
    """The transaction kinds of Figure 2's bus-utilization breakdown.

    ``str`` mixin: members hash at C speed, keeping the per-transaction
    accounting dicts cheap in the hot path.
    """

    DATA = "data"  # request/reply pairs for cache fills
    WRITEBACK = "writeback"
    UPGRADE = "upgrade"  # shared -> exclusive ownership requests


class SplitTransactionBus:
    """A bandwidth-limited shared bus.

    ``request`` returns the time at which the transaction is *granted* the
    bus; the caller adds the memory/remote latency on top.  Contention
    therefore lengthens effective miss latency exactly as the paper
    describes.
    """

    #: Address/command overhead per transaction, in bytes of bus occupancy.
    COMMAND_BYTES = 16

    def __init__(self, bandwidth_gb_s: float) -> None:
        if bandwidth_gb_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_ns = bandwidth_gb_s  # 1 GB/s == 1 byte/ns
        # Work-conserving backlog model: the bus holds `_backlog_ns` of
        # committed occupancy that drains in real time.  A request waits for
        # the current backlog, then occupies the bus itself.  Unlike a
        # single free-at timestamp, this stays correct when processors are
        # simulated slightly out of clock order (their requests see the
        # backlog of genuinely concurrent traffic, not transactions issued
        # from another processor's future).
        self._backlog_ns = 0.0
        self._last_update_ns = 0.0
        self.busy_ns: dict[BusTransactionKind, float] = {
            kind: 0.0 for kind in BusTransactionKind
        }
        self.transactions: dict[BusTransactionKind, int] = {
            kind: 0 for kind in BusTransactionKind
        }
        self.last_complete_ns = 0.0

    def occupancy_ns(self, payload_bytes: int) -> float:
        return (payload_bytes + self.COMMAND_BYTES) / self.bandwidth_bytes_per_ns

    def _drain_to(self, time_ns: float) -> None:
        """Drain backlog for elapsed real time (never rewinds the clock).

        Requests timestamped slightly in the past (processors are simulated
        in small interleaved quanta, so clocks skew by a few microseconds)
        see the current backlog without being charged for the skew itself.
        """
        if time_ns > self._last_update_ns:
            self._backlog_ns = max(
                0.0, self._backlog_ns - (time_ns - self._last_update_ns)
            )
            self._last_update_ns = time_ns

    def request(
        self, time_ns: float, payload_bytes: int, kind: BusTransactionKind
    ) -> float:
        """Issue a transaction at ``time_ns``; returns the grant time."""
        self._drain_to(time_ns)
        grant = time_ns + self._backlog_ns
        duration = self.occupancy_ns(payload_bytes)
        self._backlog_ns += duration
        self.busy_ns[kind] += duration
        self.transactions[kind] += 1
        self.last_complete_ns = max(self.last_complete_ns, grant + duration)
        return grant

    def queue_delay(self, time_ns: float) -> float:
        """How long a request issued now would wait before being granted."""
        return max(0.0, self._backlog_ns - max(0.0, time_ns - self._last_update_ns))

    @property
    def total_busy_ns(self) -> float:
        return sum(self.busy_ns.values())

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` during which the bus was occupied."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.total_busy_ns / elapsed_ns)

    def utilization_breakdown(self, elapsed_ns: float) -> dict[str, float]:
        if elapsed_ns <= 0:
            return {kind.value: 0.0 for kind in BusTransactionKind}
        return {
            kind.value: self.busy_ns[kind] / elapsed_ns for kind in BusTransactionKind
        }
