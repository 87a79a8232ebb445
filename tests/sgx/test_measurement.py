"""Measurement-log (MRENCLAVE) unit tests."""

import pytest

from repro.sgx.measurement import MeasurementLog


class TestMeasurementLog:

    def _measure(self, operations):
        log = MeasurementLog()
        for op in operations:
            kind, args = op[0], op[1:]
            getattr(log, kind)(*args)
        return log.finalize()

    def test_deterministic(self):
        ops = [("ecreate", 8192), ("eadd", 0, 5),
               ("eextend", 0, 0, b"code")]
        assert self._measure(ops) == self._measure(ops)

    def test_content_sensitivity(self):
        base = [("ecreate", 8192), ("eadd", 0, 5)]
        a = self._measure(base + [("eextend", 0, 0, b"code-a")])
        b = self._measure(base + [("eextend", 0, 0, b"code-b")])
        assert a != b

    def test_layout_sensitivity(self):
        """Same bytes at a different page offset measure differently."""
        a = self._measure([("ecreate", 8192), ("eadd", 0, 5),
                           ("eextend", 0, 0, b"x")])
        b = self._measure([("ecreate", 8192), ("eadd", 4096, 5),
                           ("eextend", 4096, 0, b"x")])
        assert a != b

    def test_flags_sensitivity(self):
        a = self._measure([("ecreate", 4096), ("eadd", 0, 5)])
        b = self._measure([("ecreate", 4096), ("eadd", 0, 7)])
        assert a != b

    def test_order_sensitivity(self):
        a = self._measure([("ecreate", 8192), ("eadd", 0, 5),
                           ("eadd", 4096, 5)])
        b = self._measure([("ecreate", 8192), ("eadd", 4096, 5),
                           ("eadd", 0, 5)])
        assert a != b

    def test_chunk_boundaries_unambiguous(self):
        """Field framing prevents concatenation collisions."""
        a = self._measure([("ecreate", 4096), ("eadd", 0, 5),
                           ("eextend", 0, 0, b"ab"),
                           ("eextend", 0, 256, b"c")])
        b = self._measure([("ecreate", 4096), ("eadd", 0, 5),
                           ("eextend", 0, 0, b"a"),
                           ("eextend", 0, 256, b"bc")])
        assert a != b

    def test_finalize_freezes(self):
        log = MeasurementLog()
        log.ecreate(4096)
        log.finalize()
        with pytest.raises(RuntimeError):
            log.eadd(0, 5)

    def test_operation_count(self):
        log = MeasurementLog()
        log.ecreate(4096)
        log.eadd(0, 5)
        assert log.n_operations == 2

    def test_digest_length(self):
        log = MeasurementLog()
        log.ecreate(4096)
        assert len(log.finalize()) == 32

