"""The record decoder: the byte boundary of every recorded feed.

The contract under test (see DESIGN.md "Record decoder contract"):

* ``parse_event(format_event(e))`` round-trips by ``content_key()`` for
  anything a feed can deliver;
* every malformed field is a ``FeedError`` from ``parse_event`` and a
  ``TraceError`` naming the line from ``load_trace`` — never a
  ``BGPError`` or a bare ``ValueError``;
* AS paths are interned by exact spelling in a bounded table that is
  cleared wholesale, and a hit never crosses spellings;
* records repeating a lead (``kind|source|collector|vantage``) share its
  objects; the lead table is bounded the same way, never holds a lead whose
  record failed validation, and a record decoded behind a warm lead is the
  cold decoder's record, or its error, exactly;
* the ``Prefix.parse`` and path-parse counters read what one parse per
  record would count;
* both trace readers (``load_trace`` and the raw-line iterators behind
  ``ParallelDetectionPlane.feed_trace``) verify format, version, record
  count and digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import BGPError, FeedError
from repro.feeds import dumpfile
from repro.feeds.dumpfile import decode_records, format_event, parse_event
from repro.feeds.events import ANNOUNCE, WITHDRAW, FeedEvent
from repro.feeds.replay import (
    TraceError,
    TraceWriter,
    iter_trace_line_bytes,
    iter_trace_lines,
    load_trace,
)
from repro.net import asn
from repro.net import prefix as prefix_module
from repro.net.asn import MAX_ASN, intern_as_path, parse_as_path
from repro.net.prefix import Prefix
from repro.perf import COUNTERS, collector_paused
from repro.tenants import ParallelDetectionPlane, TenantRegistry

from conftest import gc_collections

# ---------------------------------------------------------------- round trip

_ASNS = st.one_of(
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=65536, max_value=MAX_ASN),  # 4-byte ASNs
)
_V4 = st.builds(
    lambda value, length: Prefix(value >> (32 - length) << (32 - length), length, 4),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
_V6 = st.builds(
    lambda value, length: Prefix(value >> (128 - length) << (128 - length), length, 6),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)
_NAMES = st.text(
    alphabet=st.characters(blacklist_characters="|\n\r", blacklist_categories=("Cs",)),
    max_size=12,
)
_TIMES = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@st.composite
def feed_events(draw):
    kind = draw(st.sampled_from([ANNOUNCE, WITHDRAW]))
    path = draw(st.lists(_ASNS, min_size=1, max_size=12)) if kind == ANNOUNCE else []
    observed = draw(_TIMES)
    return FeedEvent(
        source=draw(_NAMES),
        collector=draw(_NAMES),
        vantage_asn=draw(_ASNS),
        kind=kind,
        prefix=draw(st.one_of(_V4, _V6)),
        as_path=path,
        observed_at=observed,
        delivered_at=observed + draw(st.floats(min_value=0.0, max_value=1e6)),
    )


@settings(max_examples=300, deadline=None)
@given(feed_events())
def test_format_parse_round_trip(event):
    assert parse_event(format_event(event)).content_key() == event.content_key()


# ------------------------------------------------------------- hostile lines

GOOD = "A|ris|c|1|10.0.0.0/24|1 2 3|1.0|2.0"


def line(path="1 2 3", vantage="1", observed="1.0", delivered="2.0", tail=""):
    return f"A|ris|c|{vantage}|10.0.0.0/24|{path}|{observed}|{delivered}{tail}"


HOSTILE = {
    "7 fields": "A|ris|c|1|10.0.0.0/24|1 2 3|1.0",
    "9 fields": line(tail="|x"),
    "alpha hop": line(path="1 x 3"),
    "signed hop": line(path="+5"),
    "negative hop": line(path="-1"),
    "underscore hop": line(path="1_0"),
    "tab separated": line(path="1\t2"),
    "fullwidth hop": line(path="１２"),
    "hop = 2**32": line(path=f"1 {MAX_ASN + 1}"),
    "hop beyond int() digit limit": line(path="9" * 5000),
    "empty announce path": line(path=""),
    "delivered < observed": line(observed="3.0"),
    "nan observed": line(observed="nan"),
    "nan delivered": line(delivered="nan"),
    "inf delivered": line(delivered="inf"),
    "-inf observed": line(observed="-inf"),
    "underscore timestamp": line(observed="1_0", delivered="20.0"),
    "padded timestamp": line(observed=" 1.0", delivered="2.0 "),
    "non-ASCII timestamp digit": line(observed="１.0", delivered="١"),
    "signed timestamp": line(observed="+1.0"),
    "negative vantage": line(vantage="-1"),
    "signed vantage": line(vantage="+5"),
    "fullwidth vantage": line(vantage="１２"),
    "vantage = 2**32": line(vantage=str(MAX_ASN + 1)),
    "empty vantage": line(vantage=""),
    "vantage beyond int() digit limit": line(vantage="9" * 5000),
    "bad kind": "Z" + GOOD[1:],
    "bad prefix": GOOD.replace("10.0.0.0/24", "10.0.0.0/33"),
}


def seal(lines, header=None, records=None, sha256=None):
    """A trace file's text around ``lines``, with a digest-valid footer."""
    header = header or {"format": "repro-feed-trace", "version": 1, "meta": {}}
    body = "".join(text + "\n" for text in lines)
    footer = {
        "records": len(lines) if records is None else records,
        "sha256": sha256 or hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }
    return f"#%TRACE {json.dumps(header)}\n{body}#%END {json.dumps(footer)}\n"


@pytest.mark.parametrize("bad", HOSTILE.values(), ids=HOSTILE.keys())
class TestHostileLines:
    def test_parse_event_raises_feed_error(self, bad):
        with pytest.raises(FeedError):
            parse_event(bad)

    def test_sealed_trace_names_the_line(self, bad, tmp_path):
        path = tmp_path / "hostile.trace"
        path.write_text(seal([GOOD, GOOD, bad, GOOD]), encoding="utf-8")
        with pytest.raises(TraceError, match="bad record at line 4"):
            load_trace(str(path))

    def test_read_events_raises_feed_error(self, bad, tmp_path):
        # Callers that catch FeedError around a file read keep working:
        # load_trace's TraceError is one.
        path = tmp_path / "dump.trace"
        path.write_text(seal([GOOD, bad]), encoding="utf-8")
        with pytest.raises(FeedError):
            load_trace(str(path))


@pytest.mark.parametrize("field", ["observed", "delivered"])
def test_timestamps_take_only_what_repr_writes(field):
    # Each spelling float() forgives, on either side: refused.
    other = {"observed": "0.5", "delivered": "20.0"}
    for spelling in ("1_0", " 1.0", "1.0 ", "\t1.0", "１.0", "١", "+1.0"):
        with pytest.raises(FeedError):
            parse_event(line(**dict(other, **{field: spelling})))
    # What repr() writes: a sign and exponents of either sign are kept.
    for spelling in ("-1.5", "5e-05", "1e+16", "10"):
        lower, upper = ("-2.0", spelling) if field == "delivered" else (spelling, "2e+16")
        event = parse_event(line(observed=lower, delivered=upper))
        assert repr(getattr(event, field + "_at")) == repr(float(spelling))


def test_constructor_guards_live_feeds_too():
    fields = dict(
        source="ris", collector="c", vantage_asn=1, kind=ANNOUNCE,
        prefix=Prefix.parse("10.0.0.0/24"), as_path=(1, 2),
        observed_at=1.0, delivered_at=2.0,
    )
    FeedEvent(**fields)
    for override in (
        {"vantage_asn": -1},
        {"vantage_asn": MAX_ASN + 1},
        {"observed_at": float("nan")},
        {"delivered_at": float("inf")},
        {"as_path": ()},
        {"kind": "Z"},
    ):
        with pytest.raises(FeedError):
            FeedEvent(**dict(fields, **override))


def test_constructor_coerces_inexact_inputs():
    event = FeedEvent(
        source="ris", collector="c", vantage_asn=asn.ASN(7), kind=ANNOUNCE,
        prefix=Prefix.parse("10.0.0.0/24"), as_path=[asn.ASN(1), True],
        observed_at=1, delivered_at=2,
    )
    assert event.as_path == (1, 1)
    assert {type(hop) for hop in event.as_path} == {int}
    assert type(event.vantage_asn) is int
    assert type(event.observed_at) is float and type(event.delivered_at) is float


# -------------------------------------------------------------- intern table


class TestPathInternTable:
    def test_repeated_spellings_share_one_tuple(self):
        first = intern_as_path("3356 1299 64500")
        assert intern_as_path("3356 1299 64500") is first
        assert parse_event(line(path="3356 1299 64500")).as_path is first

    def test_hit_never_crosses_spellings(self):
        assert intern_as_path("1 23") == (1, 23)
        assert intern_as_path("12 3") == (12, 3)
        assert intern_as_path("123") == (123,)
        assert intern_as_path("") == ()

    def test_filling_past_the_bound_clears_and_stays_correct(self, monkeypatch):
        monkeypatch.setattr(asn, "_PARSE_CACHE_LIMIT", 8)
        asn._PARSE_CACHE.clear()
        kept = intern_as_path("7 8 9")
        for hop in range(100):
            assert intern_as_path(f"{hop} {hop + 1}") == (hop, hop + 1)
            assert len(asn._PARSE_CACHE) <= 8
        again = intern_as_path("7 8 9")
        assert again == kept == (7, 8, 9)
        assert again is not kept  # the table really was cleared in between

    def test_counters_split_hits_from_misses(self):
        asn._PARSE_CACHE.clear()
        COUNTERS.reset()
        for _ in range(5):
            intern_as_path("64496 64497")
        assert (COUNTERS.path_parse_misses, COUNTERS.path_parse_hits) == (1, 4)

    def test_parse_as_path_is_the_same_validator(self):
        assert parse_as_path(" 1  2 ") == [1, 2]
        for bad in ("1\t2", "１２", "+5", "1_0", str(MAX_ASN + 1)):
            with pytest.raises(BGPError):
                parse_as_path(bad)
        copy = parse_as_path("5 6")
        copy.append(7)  # a caller's list never aliases the interned tuple
        assert intern_as_path("5 6") == (5, 6)


def clear_decoder_tables():
    """A cold decoder: no lead, prefix or path spelling seen before."""
    dumpfile._LEAD_CACHE.clear()
    prefix_module._PARSE_CACHE.clear()
    asn._PARSE_CACHE.clear()


def lead(text):
    """The lead of a dump line: everything before its last four fields."""
    return text.rsplit("|", 4)[0]


class TestSharedLeafFields:
    def test_repeated_source_collector_vantage_share_objects(self):
        text = "A|ris|rrc00|4200000001|10.0.0.0/24|1 2 3|{}|9.0"
        first, second = parse_event(text.format("1.0")), parse_event(text.format("2.0"))
        assert first.source is second.source
        assert first.collector is second.collector
        # Beyond CPython's small-int cache, so only the table can share it.
        assert first.vantage_asn is second.vantage_asn
        assert first.content_key()[:6] == ("ris", "rrc00", 4200000001, "A",
                                           Prefix.parse("10.0.0.0/24"), (1, 2, 3))
        # The table holds the records' own objects, and a second lead spelling
        # the same names still shares them (interned when the lead is new).
        stored = dumpfile._LEAD_CACHE[lead(text)]
        assert all(a is b for a, b in zip(stored, first.content_key()[:4]))
        withdrawal = parse_event("W|ris|rrc00|4200000001|10.0.0.0/24||3.0|9.0")
        assert withdrawal.source is first.source
        assert withdrawal.collector is first.collector

    @pytest.mark.parametrize(
        "vantage", ["+5", "１２", "", "-1", str(MAX_ASN + 1), "9" * 5000],
        ids=["signed", "fullwidth", "empty", "negative", "2**32", "5000 digits"],
    )
    def test_rejected_vantage_is_rejected_again_and_never_cached(self, vantage):
        for _sighting in range(2):
            with pytest.raises(FeedError):
                parse_event(line(vantage=vantage))
            assert lead(line(vantage=vantage)) not in dumpfile._LEAD_CACHE

    @pytest.mark.parametrize(
        "bad", [HOSTILE["bad kind"], HOSTILE["nan observed"], HOSTILE["alpha hop"],
                HOSTILE["bad prefix"], HOSTILE["empty announce path"]],
        ids=["bad kind", "nan observed", "alpha hop", "bad prefix", "empty path"],
    )
    def test_a_lead_is_stored_only_once_its_whole_record_passed(self, bad):
        clear_decoder_tables()
        with pytest.raises(FeedError):
            parse_event(bad)
        assert dumpfile._LEAD_CACHE == {}
        parse_event(GOOD)
        assert list(dumpfile._LEAD_CACHE) == [lead(GOOD)]

    def test_vantage_hit_never_crosses_spellings(self):
        assert parse_event(line(vantage="7")).vantage_asn == 7
        assert parse_event(line(vantage="007")).vantage_asn == 7
        assert parse_event(line(vantage="70")).vantage_asn == 70
        # Leads that differ only in where a name ends are different keys.
        body = "|10.0.0.0/24|1 2 3|1.0|2.0"
        assert parse_event("A|ris|c|17" + body).content_key()[:4] == ("ris", "c", 17, "A")
        assert parse_event("A|ris|c1|7" + body).content_key()[:4] == ("ris", "c1", 7, "A")
        assert parse_event("A|ri|sc1|7" + body).content_key()[:4] == ("ri", "sc1", 7, "A")
        assert parse_event("W|ris|c|17|10.0.0.0/24||1.0|2.0").kind == WITHDRAW

    def test_vantage_table_bounded_and_cleared_wholesale(self, monkeypatch):
        assert dumpfile._LEAD_CACHE_LIMIT == 65536  # Prefix.parse's bound
        monkeypatch.setattr(dumpfile, "_LEAD_CACHE_LIMIT", 8)
        dumpfile._LEAD_CACHE.clear()
        kept = parse_event(line(vantage="4200000001")).vantage_asn
        for vantage in range(70000, 70100):
            assert parse_event(line(vantage=str(vantage))).vantage_asn == vantage
            assert len(dumpfile._LEAD_CACHE) <= 8
        again = parse_event(line(vantage="4200000001")).vantage_asn
        assert again == kept == 4200000001
        assert again is not kept  # the table really was cleared in between


#: One mutated field's text: the characters every field check turns on,
#: digit runs on both sides of the 32-bit ASN bound, and a leading "+".
_FIELD_TEXT = st.tuples(
    st.sampled_from(["", "+"]),
    st.lists(
        st.one_of(
            st.sampled_from(
                list("0123456789| +-._\t") + ["nan", "inf", "１", "２", "١", ""]
            ),
            st.integers(min_value=0, max_value=1 << 33).map(str),
        ),
        max_size=6,
    ).map("".join),
).map("".join)


def decoded(text):
    """``decode_records`` on one line: the record with its exact types, lead
    fields included, or the error's type and text."""
    try:
        (record,) = decode_records([text])
    except FeedError as error:
        return type(error), str(error)
    lead, *fields = record
    return (
        repr(record),
        [type(value) for value in (*lead, *fields)],
        [type(hop) for hop in record[2]],
    )


@settings(max_examples=400, deadline=None)
@given(field=st.integers(min_value=0, max_value=7), text=_FIELD_TEXT)
def test_a_warm_lead_decodes_as_a_cold_decoder(field, text):
    fields = GOOD.split("|")
    fields[field] = text
    mutated = "|".join(fields)
    clear_decoder_tables()
    cold = decoded(mutated)
    # Warm: GOOD's prefix and path are interned, and the mutated line's own
    # lead is stored if any record can carry it.
    clear_decoder_tables()
    for primer in (GOOD, lead(mutated) + GOOD[len(lead(GOOD)):]):
        try:
            parse_event(primer)
        except FeedError:
            pass
    assert decoded(mutated) == cold


def repr_timestamp(text):
    """``text``'s value if it is a timestamp ``repr()`` could have written —
    what ``float()`` takes, less a non-ASCII character, a "_", a leading "+"
    or whitespace around it — else ``None``; judged for the field alone."""
    try:
        value = float(text)
    except ValueError:
        return None
    plain = text.isascii() and "_" not in text and text == text.strip()
    return value if plain and not text.startswith("+") else None


#: Timestamp spellings near what repr() writes: two digit runs with one
#: joint between them ("." "_" an exponent, a non-ASCII digit), a sign or a
#: pad on either side; and any field text without a separator.
_TIMESTAMP_TEXT = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", "", "+", "-", " ", "\t"]),
    st.integers(0, 99).map(str),
    st.sampled_from([".", "_", "e", "e+", "e-", "١", ""]),
    st.integers(0, 99).map(str),
    st.sampled_from(["", "", " ", "\t", "+"]),
) | _FIELD_TEXT.filter(lambda text: "|" not in text)


@settings(max_examples=400, deadline=None)
@given(
    source=st.sampled_from(["ris", "ris_live", "rïs"]),
    observed=_TIMESTAMP_TEXT,
    delivered=_TIMESTAMP_TEXT,
)
def test_timestamp_accept_set_is_per_field(source, observed, delivered):
    """Each timestamp is judged on its own text, whatever the rest of the
    line holds: a "_" or a non-ASCII character in the source neither lets
    a bad timestamp through nor refuses a good one."""
    text = f"A|{source}|c|1|10.0.0.0/24|1 2 3|{observed}|{delivered}"
    low, high = repr_timestamp(observed), repr_timestamp(delivered)
    accepted = low is not None and high is not None and -inf < low <= high < inf
    try:
        event = parse_event(text)
    except FeedError:
        assert not accepted, text
    else:
        assert accepted, text
        assert (event.observed_at, event.delivered_at) == (low, high)


# ------------------------------------------------------- frame verification


def write_trace(path, rounds=30):
    """Announcements of 10.0.0.0/16 and 10.1.0.0/16; returns the path."""
    with TraceWriter(str(path)) as writer:
        for i in range(rounds):
            for block in (0, 1):
                writer.append(
                    FeedEvent(
                        source="ris", collector="rrc00", vantage_asn=100 + i % 3,
                        kind=ANNOUNCE, prefix=Prefix.parse(f"10.{block}.0.0/16"),
                        as_path=(1, 666 if i % 5 == 0 else 65000 + block),
                        observed_at=float(i), delivered_at=i + 0.25,
                    )
                )
    return str(path)


def registry():
    tenants = TenantRegistry()
    for block in (0, 1):
        tenants.add_tenant(
            f"t{block}",
            ArtemisConfig([OwnedPrefix(f"10.{block}.0.0/16", [65000 + block])]),
        )
    return tenants


def damaged(path, tmp_path, edit):
    text = open(path, encoding="utf-8").read()
    target = tmp_path / "damaged.trace"
    target.write_text(edit(text), encoding="utf-8")
    return str(target)


DAMAGE = {
    "unknown format": (lambda t: t.replace("repro-feed-trace", "other"), "format"),
    "newer version": (lambda t: t.replace('"version": 1', '"version": 999'), "version"),
    "wrong count": (lambda t: t.replace('"records": 60', '"records": 61'), "61"),
    "flipped timestamp byte": (lambda t: t.replace("|7.0|7.25", "|7.0|7.26", 1), "digest"),
    "no footer": (lambda t: t[: t.index("#%END")], "truncated"),
    "cut mid-record": (lambda t: t[: t.index("#%END") - 4], "truncated record at line 61"),
}


@pytest.mark.parametrize("edit,message", DAMAGE.values(), ids=DAMAGE.keys())
class TestBothReadersVerify:
    def test_load_trace(self, tmp_path, edit, message):
        bad = damaged(write_trace(tmp_path / "t.trace"), tmp_path, edit)
        with pytest.raises(TraceError, match=message):
            load_trace(bad)

    def test_line_iterators(self, tmp_path, edit, message):
        bad = damaged(write_trace(tmp_path / "t.trace"), tmp_path, edit)
        with pytest.raises(TraceError, match=message):
            list(iter_trace_line_bytes(bad))
        with pytest.raises(TraceError, match=message):
            list(iter_trace_lines(bad))

    def test_feed_trace_raises_and_no_worker_survives(self, tmp_path, edit, message):
        bad = damaged(write_trace(tmp_path / "t.trace"), tmp_path, edit)
        with ParallelDetectionPlane(registry(), num_workers=2) as parallel:
            processes = list(parallel._group.processes)
            assert all(process.is_alive() for process in processes)
            with pytest.raises(TraceError, match=message):
                parallel.feed_trace(bad)
        assert not any(process.is_alive() for process in processes)
        assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("restore_gc")
class TestLoadPausesCollector:
    """``load_trace`` pauses the cyclic collector and hands it back as found."""

    def test_restored_on_return(self, tmp_path, caller_gc_enabled):
        trace = load_trace(write_trace(tmp_path / "t.trace"))
        assert len(trace.events) == 60
        assert gc.isenabled() is caller_gc_enabled

    @pytest.mark.parametrize("damage", ["no footer", "flipped timestamp byte"])
    def test_restored_on_a_damaged_frame(self, tmp_path, caller_gc_enabled, damage):
        edit, message = DAMAGE[damage]
        bad = damaged(write_trace(tmp_path / "t.trace"), tmp_path, edit)
        with pytest.raises(TraceError, match=message):
            load_trace(bad)
        assert gc.isenabled() is caller_gc_enabled

    def test_restored_on_a_bad_record(self, tmp_path, caller_gc_enabled):
        path = tmp_path / "hostile.trace"
        path.write_text(seal([GOOD, HOSTILE["nan observed"]]), encoding="utf-8")
        with pytest.raises(TraceError, match="bad record at line 3"):
            load_trace(str(path))
        assert gc.isenabled() is caller_gc_enabled

    def test_nested_in_a_paused_caller_is_a_no_op(self, tmp_path):
        path = write_trace(tmp_path / "t.trace")
        gc.enable()
        with collector_paused():
            load_trace(path)
            assert not gc.isenabled(), "the load lifted its caller's pause"
        assert gc.isenabled()

    def test_at_most_one_collection_across_a_load(self, tmp_path):
        # 6,000 records: nine young-generation thresholds' worth of events.
        path = write_trace(tmp_path / "t.trace", rounds=3000)
        gc.enable()
        before = gc_collections()
        trace = load_trace(path)
        assert gc_collections() - before <= 1
        assert len(trace.events) == 6000


def test_readers_agree_on_an_intact_trace(tmp_path, monkeypatch):
    path = write_trace(tmp_path / "t.trace")
    # A block size smaller than the file: the footer lands mid-stream.
    monkeypatch.setattr("repro.feeds.replay._RecordReader.BLOCK", 256)
    trace = load_trace(path)
    lines = list(iter_trace_lines(path))
    assert [format_event(event) for event in trace.events] == lines
    assert [raw.decode("utf-8") for raw in iter_trace_line_bytes(path)] == lines
    body = "".join(text + "\n" for text in lines).encode("utf-8")
    assert trace.digest == hashlib.sha256(body).hexdigest()


def test_parse_counters_read_one_parse_per_record(tmp_path):
    """Hits are counted once per decode call: the totals are those of one
    ``Prefix.parse`` and one ``intern_as_path`` call per record."""
    lines = list(iter_trace_lines(write_trace(tmp_path / "t.trace", rounds=30)))

    def counts():
        return (COUNTERS.prefix_parse_misses, COUNTERS.prefix_parse_hits,
                COUNTERS.path_parse_misses, COUNTERS.path_parse_hits)

    clear_decoder_tables()
    COUNTERS.reset()
    assert len(list(decode_records(lines))) == 60
    # Two prefixes and three paths, each parsed once.
    assert counts() == (2, 58, 3, 57)
    records = decode_records(lines)
    next(records), next(records)
    records.close()  # a consumer that stops early still has its hits counted
    assert counts() == (2, 60, 3, 59)


def test_non_utf8_record_bytes_are_a_trace_error(tmp_path, capsys):
    from repro.cli import main

    body = GOOD.encode("utf-8") + b"\n" + GOOD.encode("utf-8").replace(b"ris", b"\xff\xfe") + b"\n"
    footer = {"records": 2, "sha256": hashlib.sha256(body).hexdigest()}
    path = tmp_path / "latin.trace"
    path.write_bytes(
        b'#%TRACE {"format": "repro-feed-trace", "version": 1}\n'
        + body
        + f"#%END {json.dumps(footer)}\n".encode("utf-8")
    )
    with pytest.raises(TraceError, match="records from line 2 on are not UTF-8") as loaded:
        load_trace(str(path))
    with pytest.raises(TraceError) as streamed:
        list(iter_trace_lines(str(path)))
    assert str(streamed.value) == str(loaded.value)
    # The single-process tenant replay streams through iter_trace_lines.
    code = main(["replay", str(path), "--synth-tenants", "2",
                 "--synth-prefixes", "8", "--detect-workers", "1"])
    assert code == 2
    assert str(loaded.value) in capsys.readouterr().err


def test_empty_trace_loads(tmp_path):
    path = str(tmp_path / "empty.trace")
    TraceWriter(path).close()
    trace = load_trace(path)
    assert len(trace.events) == 0 and not trace.events
    assert list(trace.events) == [] and trace.span() == 0.0
    assert list(iter_trace_line_bytes(path)) == []


# ----------------------------------------------------------------------- cli


class TestTenantReplayCli:
    def run(self, trace, capsys):
        from repro.cli import main

        code = main(["replay", trace, "--synth-tenants", "2",
                     "--synth-prefixes", "8", "--detect-workers", "2"])
        return code, capsys.readouterr()

    def test_parallel_branch_reaps_workers(self, tmp_path, capsys):
        code, output = self.run(write_trace(tmp_path / "t.trace"), capsys)
        assert code == 0
        assert "records read" in output.out
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_prints_verdict_cache_hit_ratio(self, tmp_path, capsys, workers):
        from repro.cli import main

        trace = write_trace(tmp_path / "t.trace")
        code = main(["replay", trace, "--synth-tenants", "2",
                     "--synth-prefixes", "8", "--detect-workers", workers])
        rows = dict(
            line.strip().rsplit(None, 1)
            for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("verdict cache")
        )
        assert code == 0
        hits = int(rows["verdict cache hits"])
        misses = int(rows["verdict cache misses"])
        # Every judged announcement is a hit or a miss, in the workers too.
        assert misses > 0
        assert hits + misses == COUNTERS.pipeline_events_ingested
        assert float(rows["verdict cache hit ratio"]) == pytest.approx(
            hits / (hits + misses), abs=1e-6
        )

    def test_trace_error_after_start_is_exit_2_without_leaks(
        self, tmp_path, capsys, monkeypatch
    ):
        def rot(self, path):
            raise TraceError("trace digest mismatch: records were corrupted")

        # The trace changes between the CLI's load_trace and the workers'
        # feed: only the second read sees the damage.
        monkeypatch.setattr(ParallelDetectionPlane, "feed_trace", rot)
        code, output = self.run(write_trace(tmp_path / "t.trace"), capsys)
        assert code == 2
        assert "digest mismatch" in output.err
        assert multiprocessing.active_children() == []
