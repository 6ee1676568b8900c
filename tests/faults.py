from socketstore.wire import TransportError, TransportTimeout


class FaultyTransport:
    """Wraps a transport and injects one fault class; used to drive the
    fallback-totality contract."""

    def __init__(self, inner, fault: str = "down", cut_after: int = 0):
        if fault not in ("down", "timeout", "cut_after", "none"):
            raise ValueError(f"unknown fault {fault!r}")
        self.inner = inner
        self.fault = fault
        self.cut_after = cut_after
        self._count = 0

    def request(self, message: dict) -> dict:
        if self.fault == "down":
            raise TransportError("store unreachable")
        if self.fault == "timeout":
            raise TransportTimeout("no reply from store")
        if self.fault == "cut_after":
            self._count += 1
            if self._count > self.cut_after:
                raise TransportError("connection cut")
        return self.inner.request(message)

    def close(self) -> None:
        self.inner.close()
