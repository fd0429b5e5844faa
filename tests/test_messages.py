"""Tests for BGP UPDATE message objects."""

import pytest

from repro.bgp.messages import (
    ORIGIN_EGP,
    Announcement,
    UpdateMessage,
    Withdrawal,
)
from repro.errors import BGPError
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


class TestAnnouncement:
    def test_origin_and_sender(self):
        a = Announcement(P("10.0.0.0/23"), [3356, 1299, 64500])
        assert a.origin_as == 64500
        assert a.sender_as == 3356

    def test_empty_path_rejected(self):
        with pytest.raises(BGPError):
            Announcement(P("10.0.0.0/23"), [])

    def test_invalid_origin_attr(self):
        with pytest.raises(BGPError):
            Announcement(P("10.0.0.0/23"), [1], origin_attr=7)

    def test_equality_and_hash(self):
        a = Announcement(P("10.0.0.0/23"), [1, 2])
        b = Announcement(P("10.0.0.0/23"), [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a != Announcement(P("10.0.0.0/23"), [1, 3])
        assert a != Announcement(P("10.0.0.0/23"), [1, 2], origin_attr=ORIGIN_EGP)

    def test_path_is_tuple_of_ints(self):
        a = Announcement(P("10.0.0.0/23"), ["1", 2.0])
        assert a.as_path == (1, 2)


class TestWithdrawal:
    def test_equality(self):
        assert Withdrawal(P("10.0.0.0/24")) == Withdrawal(P("10.0.0.0/24"))
        assert Withdrawal(P("10.0.0.0/24")) != Withdrawal(P("10.0.1.0/24"))

    def test_hash_differs_from_announcement(self):
        w = Withdrawal(P("10.0.0.0/24"))
        assert hash(w) != hash(P("10.0.0.0/24"))


class TestUpdateMessage:
    def test_must_carry_something(self):
        with pytest.raises(BGPError):
            UpdateMessage(1)

    def test_sender_must_match_paths(self):
        good = Announcement(P("10.0.0.0/23"), [1, 2])
        UpdateMessage(1, announcements=[good])
        with pytest.raises(BGPError):
            UpdateMessage(9, announcements=[good])

    def test_size(self):
        message = UpdateMessage(
            1,
            announcements=[Announcement(P("10.0.0.0/24"), [1, 2])],
            withdrawals=[Withdrawal(P("10.0.1.0/24")), Withdrawal(P("10.0.2.0/24"))],
        )
        assert message.size == 3
