"""Write buffer load policy: only ``ignore`` (the paper's Fig. 5 model)."""

import pytest

from repro.buffers.write_buffer import (
    CoalescingWriteBuffer,
    READ_POLICIES,
    WriteBufferConfig,
)
from repro.common.errors import ConfigurationError


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            CoalescingWriteBuffer(read_policy="snoop")

    def test_known_policies(self):
        for policy in READ_POLICIES:
            CoalescingWriteBuffer(read_policy=policy)

    @pytest.mark.parametrize("policy", ["forward", "drain"])
    def test_retired_policies_refused(self, policy):
        with pytest.raises(ConfigurationError):
            CoalescingWriteBuffer(read_policy=policy)
        with pytest.raises(ConfigurationError):
            WriteBufferConfig(read_policy=policy)

    def test_cache_key_keeps_the_policy(self):
        assert WriteBufferConfig().cache_key().endswith(":reads=ignore")
