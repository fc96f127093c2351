"""Properties of the sans-IO HTTP/1.1 framer and its readers.

:mod:`repro.httpmodel.framing` is the only HTTP grammar in the package,
so it is tested directly, with no sockets: a valid pipelined stream must
frame into the same messages at the same byte boundaries however it is
cut into receive pieces, every reader built on it — the blocking stream
adapters (over whole and partial reads), the socket receive loop of the
threaded frontend and the LB relay — must agree with the framer on
every input, malformed ones included, and re-framing a growing message
must resume rather than start over.
"""

from __future__ import annotations

import asyncio
import io

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.httpmodel import framing
from repro.httpmodel.framing import (
    MAX_HEAD,
    NEED_EMPTY_LINE,
    NEED_LINE,
    HttpParseError,
    Progress,
    drop_field,
    field_value,
    find_head_end,
    need_bytes,
    need_count,
    parse_fields,
)
from repro.httpmodel.messages import (
    frame_request,
    frame_response,
    read_framed,
    read_request,
    read_response,
)
from repro.httpwire.aio.server import _ConnReader
from repro.httpwire.connbase import recv_framed
from repro.lb.forward import frame_relayed, read_raw_response

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# -- message generators -----------------------------------------------------

LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
TOKEN = st.text(alphabet=LETTERS + "0123456789-", min_size=1, max_size=12)
VALUE = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 =;,/\"'.", max_size=20)
RESERVED = {"content-length", "transfer-encoding", "trailer", "connection"}
FIELDS = st.lists(
    st.tuples(TOKEN.filter(lambda name: name.lower() not in RESERVED), VALUE),
    max_size=5,
)


@st.composite
def chunked_body(draw, body: bytes, trailers: list[tuple[str, str]]) -> bytes:
    """*body* in chunked coding, cut at drawn points, with drawn spellings
    of the size lines and the end of the trailer section."""
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(body) - 1)), max_size=4)))
    pieces = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if body[a:b]]
    out = bytearray()
    for piece in pieces:
        size = f"{len(piece):x}"
        size = draw(st.sampled_from([size, size.upper(), "0" + size]))
        extension = draw(st.sampled_from(["", ";ext=1", " ; x"]))
        out += f"{size}{extension}".encode() + draw(st.sampled_from([b"\r\n", b"\n"]))
        out += piece + b"\r\n"
    out += b"0" + draw(st.sampled_from([b"", b";last"])) + b"\r\n"
    for name, value in trailers:
        out += f"{name}: {value}\r\n".encode()
    out += draw(st.sampled_from([b"\r\n", b"\n"])) if not trailers else b"\r\n"
    return bytes(out)


def head_bytes(start_line: str, fields: list[tuple[str, str]], bare_lf: bool) -> bytes:
    """A head in CRLF form, or ending in the bare-LF form the grammar
    accepts (``...last-field\\n\\n``, or ``start-line\\n\\n`` with no fields)."""
    lines = [start_line] + [f"{name}: {value}" for name, value in fields]
    if not bare_lf:
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return ("\r\n".join(lines) + "\n\n").encode("latin-1")


@st.composite
def messages(draw, kind: str):
    """One valid request or response: (wire bytes, expected fields)."""
    fields = draw(FIELDS)
    body = draw(st.binary(max_size=300))
    framings = ["length", "chunked"] if body else ["none", "length", "chunked"]
    framing = draw(st.sampled_from(framings))
    trailers = draw(FIELDS) if framing == "chunked" else []
    if kind == "request":
        method = draw(st.sampled_from(["GET", "HEAD", "POST", "PUT"]))
        target = "/" + draw(st.text(alphabet="abcxyz/._-?=&0123456789", max_size=20))
        start_line = f"{method} {target} HTTP/1.1"
        expected = {"method": method, "target": target}
    else:
        status = draw(st.sampled_from([200, 404, 500, 304]))
        if status == 304 and framing != "chunked":
            body, framing = b"", "none"
        start_line = f"HTTP/1.1 {status} Whatever"
        expected = {"status": status}
    if framing == "length":
        fields = fields + [("Content-Length", str(len(body)))]
    elif framing == "chunked":
        fields = fields + [("Transfer-Encoding", "chunked")]
    wire = head_bytes(start_line, fields, draw(st.booleans()))
    if framing == "chunked":
        wire += draw(chunked_body(body, trailers))
    elif framing == "length":
        wire += body
    expected.update(fields=[(n, v.strip()) for n, v in fields], body=body)
    if kind == "response":
        expected["trailers"] = [(n, v.strip()) for n, v in trailers]
    return wire, expected


def describe(message) -> dict:
    """The fields of a framed message that the generators predict."""
    out = {"fields": list(message.headers), "body": message.body}
    if hasattr(message, "method"):
        out.update(method=message.method, target=message.target)
    else:
        out.update(status=message.status, trailers=list(message.trailers))
    return out


def cut(data: bytes, cuts) -> list[bytes]:
    points = sorted(set(cuts))
    return [data[a:b] for a, b in zip([0, *points], [*points, len(data)]) if b > a]


def splits(data: bytes):
    """Strategy: *data* cut into consecutive non-empty pieces."""
    return st.lists(st.integers(1, max(1, len(data))), max_size=12).map(
        lambda cuts: cut(data, cuts)
    )


# -- byte sources that deliver data in given pieces -------------------------


class PieceRaw(io.RawIOBase):
    """A raw stream handing out *pieces* one read at a time, so a
    BufferedReader over it sees partial data like a socket would."""

    def __init__(self, pieces):
        self.pieces = [bytes(piece) for piece in pieces]

    def readable(self):
        return True

    def readinto(self, target):
        if not self.pieces:
            return 0
        piece = self.pieces[0]
        count = min(len(piece), len(target))
        target[:count] = piece[:count]
        if count == len(piece):
            self.pieces.pop(0)
        else:
            self.pieces[0] = piece[count:]
        return count


class PieceSocket:
    """``recv_into`` from a list of pieces; EOF once they run out."""

    def __init__(self, pieces):
        self.raw = PieceRaw(pieces)

    def recv_into(self, target):
        return self.raw.readinto(target)


FRAMERS = {
    "request": (frame_request, read_request),
    "response": (frame_response, read_response),
    "relayed": (frame_relayed, read_raw_response),
}


def readers(pieces, reader_fn, framer):
    """Every way the package reads a stream, each yielding messages."""
    data = b"".join(pieces)

    def stream_reader(stream):
        def next_message():
            return reader_fn(stream)
        return next_message

    buffer = bytearray()
    chunk = memoryview(bytearray(16))
    socket_like = PieceSocket(pieces)
    return {
        "whole": stream_reader(io.BytesIO(data)),
        "partial": stream_reader(io.BufferedReader(PieceRaw(pieces), buffer_size=8)),
        "recv": lambda: recv_framed(socket_like, buffer, chunk, framer),
    }


def frame_all_incrementally(pieces, framer):
    """Feed *pieces* like a frontend does, resuming each message's
    framing after every piece; returns [(message, end)]."""
    buffer = bytearray()
    progress = Progress()
    consumed = 0
    framed = []
    for piece in pieces:
        buffer += piece
        while True:
            message, code = framer(buffer, progress)
            if message is None:
                assert code < 0
                break
            consumed += code
            framed.append((message, consumed))
            del buffer[:code]
            progress = Progress()
    assert not buffer
    return framed


# -- split invariance -------------------------------------------------------


@pytest.mark.parametrize("kind", ["request", "response", "relayed"])
@SETTINGS
@given(data=st.data())
def test_any_split_frames_the_same_messages_and_boundaries(kind, data):
    generated = data.draw(st.lists(
        messages("request" if kind == "request" else "response"), min_size=1, max_size=4
    ))
    stream = b"".join(wire for wire, _ in generated)
    boundaries = []
    offset = 0
    for wire, _ in generated:
        offset += len(wire)
        boundaries.append(offset)
    framer, reader_fn = FRAMERS[kind]
    pieces = data.draw(splits(stream))
    framed = frame_all_incrementally(pieces, framer)
    assert [end for _, end in framed] == boundaries
    for (message, _), (wire, expected) in zip(framed, generated):
        if kind == "relayed":
            assert message.raw == wire
            assert message.status == expected["status"]
            assert list(message.headers) == expected["fields"]
            assert list(message.trailers) == expected["trailers"]
        else:
            assert describe(message) == expected
            if kind == "request":
                assert message.raw == wire
    # Every reader built on the framer reads the same messages back, one
    # call at a time, and then reports a clean end of stream.
    for label, next_message in readers(pieces, reader_fn, framer).items():
        for (message, _), (wire, expected) in zip(framed, generated):
            got = next_message()
            if kind == "relayed":
                assert got.raw == wire, label
            else:
                assert describe(got) == describe(message), label
        with pytest.raises(EOFError):
            next_message()


# -- malformed input: one error class everywhere ----------------------------

# "9" * 5000 is past int()'s default digit limit, and 19 digits past the cap.
BAD_LENGTHS = [
    "abc", "-5", "5, 5", "+5", "0x5", " ", "", "5 5", "\xb2", "1_0", "9" * 19, "9" * 5000
]
BAD_CHUNK_SIZES = [b"-5", b"+5", b"0x5", b"g", b"", b"5_0", b"1 2", b"1" * 17]


@st.composite
def malformed(draw, kind: str) -> bytes:
    """A message with one drawn defect (or a valid one, cut short)."""
    wire, _ = draw(messages(kind))
    defect = draw(st.sampled_from(
        ["length", "chunk", "truncate", "flip", "line", "garbage", "empty"]
    ))
    if defect == "length":
        head = "GET /x HTTP/1.1" if kind == "request" else "HTTP/1.1 200 OK"
        value = draw(st.sampled_from(BAD_LENGTHS))
        return f"{head}\r\nContent-Length: {value}\r\n\r\nbody".encode("latin-1")
    if defect == "chunk":
        head = b"POST /x HTTP/1.1" if kind == "request" else b"HTTP/1.1 200 OK"
        size = draw(st.sampled_from(BAD_CHUNK_SIZES))
        chunked = b"\r\nTransfer-Encoding: chunked\r\n\r\n"
        return head + chunked + size + b"\r\nab\r\n0\r\n\r\n"
    if defect == "truncate":
        return wire[: draw(st.integers(0, len(wire) - 1))]
    if defect == "flip":
        at = draw(st.integers(0, len(wire) - 1))
        return wire[:at] + bytes([draw(st.integers(0, 255))]) + wire[at + 1:]
    if defect == "line":
        return wire.replace(b"\r\n", b"\r\nno colon here\r\n", 1)
    if defect == "garbage":
        return draw(st.binary(min_size=1, max_size=64)) + b"\r\n\r\n"
    return b""


def outcome(call):
    try:
        return "ok", call()
    except EOFError:
        return "eof", None
    except HttpParseError:
        return "parse", None


def framer_outcome(framer, data: bytes):
    """What the framer makes of *data* followed by end of stream."""
    result = outcome(lambda: framer(data))
    if result[0] != "ok":
        return result
    message, _ = result[1]
    if message is not None:
        return "ok", message
    return ("parse" if data else "eof"), None


@pytest.mark.parametrize("kind", ["request", "response", "relayed"])
@SETTINGS
@given(data=st.data())
def test_every_reader_maps_input_to_the_framers_outcome(kind, data):
    wire = data.draw(malformed("request" if kind == "request" else "response"))
    framer, reader_fn = FRAMERS[kind]
    expected_class, expected = framer_outcome(framer, wire)
    pieces = data.draw(splits(wire)) if wire else []
    for label, next_message in readers(pieces, reader_fn, framer).items():
        got_class, got = outcome(next_message)
        assert got_class == expected_class, (label, wire)
        if expected_class == "ok":
            if kind == "relayed":
                assert got.raw == expected.raw
            else:
                assert describe(got) == describe(expected), label


@pytest.mark.parametrize(
    "value", BAD_LENGTHS, ids=lambda value: value if len(value) < 20 else f"{len(value)}-digits"
)
def test_malformed_content_length_is_a_parse_error(value):
    wire = f"POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde".encode("latin-1")
    with pytest.raises(HttpParseError):
        frame_request(wire)
    response = f"HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nabcde".encode("latin-1")
    with pytest.raises(HttpParseError):
        frame_relayed(response)


def test_bodiless_statuses_ignore_content_length():
    message, end = frame_relayed(b"HTTP/1.1 304 Not Modified\r\nContent-Length: x\r\n\r\n")
    assert message is not None and end == len(message.raw)


@pytest.mark.parametrize("size", BAD_CHUNK_SIZES)
def test_malformed_chunk_size_is_a_parse_error(size):
    head = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    wire = head + size + b"\r\nab\r\n0\r\n\r\n"
    with pytest.raises(HttpParseError):
        frame_request(wire)


def test_need_codes_name_what_is_missing():
    assert frame_request(b"GET / HTTP/1.1\r\nHost: a")[1] == NEED_EMPTY_LINE
    _, code = frame_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert need_count(code) == 7
    _, code = frame_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab")
    assert need_count(code) == 5  # three data bytes and the CRLF
    _, code = frame_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5")
    assert code == NEED_LINE
    _, code = frame_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX: y")
    assert code == NEED_EMPTY_LINE
    assert need_count(NEED_LINE) == need_count(NEED_EMPTY_LINE) == 0
    assert [need_count(need_bytes(n)) for n in (1, 2, 1 << 40)] == [1, 2, 1 << 40]


def test_head_grammar_bare_lf_rules():
    assert find_head_end(b"\r\nGET") == 2
    assert find_head_end(b"\nGET") == 1
    assert find_head_end(b"GET / HTTP/1.1\n\nrest") == 16
    # the earlier of "\n\r\n" and "\n\n" ends the head
    assert find_head_end(b"A\r\nB\n\nC\r\n\r\n") == 6
    assert find_head_end(b"A\r\nB\r\n\r\nC\n\n") == 8
    assert find_head_end(b"GET / HTTP/1.1\r\nHost: a\r\n") == NEED_EMPTY_LINE


def test_unterminated_head_past_the_limit_is_malformed():
    assert find_head_end(b"x" * MAX_HEAD) == NEED_EMPTY_LINE
    with pytest.raises(HttpParseError):
        find_head_end(b"x" * (MAX_HEAD + 1))


# -- field scans agree with the full parse ----------------------------------

SPACES = st.sampled_from(["", " ", "  ", "\t"])
FIELD_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "X-Content-Length", "Vary"]
)


@SETTINGS
@given(lines=st.lists(st.tuples(SPACES, FIELD_NAMES, SPACES, VALUE), max_size=6))
def test_field_value_matches_the_full_parse(lines):
    text = "".join(f"{a}{name}{b}: {value}\r\n" for a, name, b, value in lines) + "\r\n"
    fields = parse_fields(text)
    for name in ("content-length", "transfer-encoding", "vary"):
        assert field_value(text, text.lower(), name) == fields.get(name)


BROKEN_LINES = st.sampled_from([
    "X: a\rContent-Length: 5",
    "X: a\nContent-Length: 5",
    "Content-Length: 5\rX: 1",
    "Content-Length 5",
    "Transfer-Encoding chunked",
    "Vary: a\r\rb",
    "no colon here",
])


@SETTINGS
@given(
    lines=st.lists(st.tuples(SPACES, FIELD_NAMES, SPACES, VALUE), max_size=4),
    broken=BROKEN_LINES,
    at=st.integers(0, 4),
)
def test_field_value_rejects_what_the_full_parse_rejects_on_its_lines(lines, broken, at):
    """The lazy scan never reads a framing field the full parse would not
    read: a line it scans fails exactly as :func:`parse_fields` fails."""
    rendered = [f"{a}{name}{b}: {value}" for a, name, b, value in lines]
    rendered.insert(min(at, len(rendered)), broken)
    text = "\r\n".join(rendered) + "\r\n\r\n"
    with pytest.raises(HttpParseError):
        parse_fields(text)
    for name in ("content-length", "transfer-encoding", "vary"):
        if name in broken.lower():
            with pytest.raises(HttpParseError):
                field_value(text, text.lower(), name)
        else:
            assert field_value(text, text.lower(), name) == parse_fields(
                text.replace(broken + "\r\n", "")
            ).get(name)


@pytest.mark.parametrize("kind", ["request", "response", "relayed"])
def test_a_length_hidden_behind_a_bare_cr_is_malformed(kind):
    """Regression: the relay's lazy scan used to skip this line while a
    lenient client could read ``Content-Length: 5`` out of it."""
    start = b"POST /x HTTP/1.1" if kind == "request" else b"HTTP/1.1 200 OK"
    wire = start + b"\r\nX: a\rContent-Length: 5\r\n\r\nhello"
    with pytest.raises(HttpParseError):
        FRAMERS[kind][0](wire)


# -- resuming: framing a growing message is linear --------------------------


@pytest.fixture
def size_line_matches(monkeypatch):
    """Counts chunk-size line matches, one per chunk-walk step."""
    pattern = framing._CHUNK_SIZE_LINE
    counter = {"calls": 0}

    class Counting:
        def match(self, buf, pos):
            counter["calls"] += 1
            return pattern.match(buf, pos)

    monkeypatch.setattr(framing, "_CHUNK_SIZE_LINE", Counting())
    return counter


def one_chunk_per_piece(chunks: int) -> list[bytes]:
    head = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    return [head] + [b"1\r\nx\r\n"] * chunks + [b"0\r\nT: v\r\n", b"\r\n"]


def read_via_conn_reader(pieces):
    loop = asyncio.new_event_loop()
    loop.close()
    reader = _ConnReader(loop)
    for piece in pieces:
        reader._buffer += piece
        request = reader.frame()
    assert not reader._buffer
    return request


READS = {
    "recv": lambda pieces: recv_framed(
        PieceSocket(pieces), bytearray(), memoryview(bytearray(64)), frame_request
    ),
    "stream": lambda pieces: read_request(io.BytesIO(b"".join(pieces))),
    "async-buffer": read_via_conn_reader,
}


@pytest.mark.parametrize("read", sorted(READS))
def test_chunk_walk_steps_grow_linearly_with_chunk_count(read, size_line_matches):
    """A body that arrives one chunk per receive is walked once overall,
    not once per receive (which would be quadratic in the chunk count)."""
    steps = {}
    for chunks in (200, 800):
        size_line_matches["calls"] = 0
        request = READS[read](one_chunk_per_piece(chunks))
        assert request.body == b"x" * chunks
        steps[chunks] = size_line_matches["calls"]
    assert steps[800] <= 3 * 800 + 10
    assert steps[800] <= 4 * steps[200] + 10


def test_stream_reader_frames_each_section_once():
    """A line reader waits for the empty line that ends a head or trailer
    section instead of re-framing after every field line."""
    fields = "".join(f"X-{i}: {i}\r\n" for i in range(20))
    trailers = "".join(f"T-{i}: {i}\r\n" for i in range(5))
    wire = (
        f"HTTP/1.1 200 OK\r\n{fields}Transfer-Encoding: chunked\r\n\r\n"
        f"3\r\nabc\r\n0\r\n{trailers}\r\n"
    ).encode()
    calls = []

    def counting(buf, progress):
        calls.append(len(buf))
        return frame_response(buf, progress)

    response = read_framed(io.BytesIO(wire), counting)
    assert response.body == b"abc" and len(response.trailers) == 5
    # head, size line, chunk data, last-chunk line, trailer section
    assert len(calls) == 5


@SETTINGS
@given(data=st.data())
def test_resumed_framing_equals_framing_the_whole_message(data):
    """Progress carried across any cut of one message gives the same
    result as one call over the complete bytes."""
    wire, _ = data.draw(messages("response"))
    cuts = data.draw(splits(wire))
    buffer = bytearray()
    progress = Progress()
    for piece in cuts:
        buffer += piece
        message, end = frame_response(buffer, progress)
    whole, whole_end = frame_response(wire)
    assert end == whole_end == len(wire)
    assert describe(message) == describe(whole)


@SETTINGS
@given(data=st.data())
def test_drop_field_removes_only_the_named_lines(data):
    wire, expected = data.draw(messages("request"))
    connection = data.draw(st.sampled_from(["Connection", "connection", " CONNECTION"]))
    head_end = find_head_end(wire)
    first_line_end = wire.index(b"\n") + 1
    assume(wire[first_line_end - 2:first_line_end] == b"\r\n")  # a CRLF start line
    line = f"{connection}: close\r\n".encode()
    with_connection = wire[:first_line_end] + line + wire[first_line_end:]
    request, _ = frame_request(with_connection)
    assert request.headers.get("Connection") == "close"
    stripped = drop_field(with_connection, "connection")
    assert stripped == wire
    again, end = frame_request(stripped)
    assert end == len(wire) and again.body == expected["body"]
    assert head_end == find_head_end(stripped)
