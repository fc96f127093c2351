"""Differential test: the live wire stack agrees with the trace replay.

The same synthetic trace is evaluated two ways:

* **simulated** — :func:`repro.analysis.prediction.replay`, the replay
  engine, post-processes the trace against a directory volume store (the
  paper's methodology);
* **live** — each record is sent as a real HTTP request over loopback to
  a :class:`PiggybackHttpServer` (clock pinned to the record timestamp),
  the ``P-volume`` trailer is parsed off the chunked response, and the
  replay's scoring rules are applied to the *wire-delivered* piggybacks.

The Section 3.1 metrics — fraction predicted, true-prediction fraction,
update fraction — must agree across the two paths: the wire encoding,
the server engine, and the replay engine implement one protocol.
"""

import random

import pytest

from replay_windows import SourceState
from repro.analysis.metrics import ReplayMetrics
from repro.analysis.prediction import ReplayConfig, replay
from repro.httpmodel.messages import HttpRequest
from repro.httpmodel.piggy_codec import P_VOLUME_HEADER, parse_p_volume
from repro.httpwire.netclient import HttpConnection
from repro.httpwire.netserver import PiggybackHttpServer
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.traces.records import LogRecord, Trace
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

HOST = "www.diff.example"
WINDOW = 300.0
MAX_ELEMENTS = 10
TOLERANCE = 0.02


def synthetic_trace(requests=400, sources=4, directories=3, pages=6, seed=42):
    """A small trace with enough revisits for predictions to open/resolve."""
    rng = random.Random(seed)
    urls = [
        f"{HOST}/d{d}/p{p}.html"
        for d in range(directories)
        for p in range(pages)
    ]
    records = []
    now = 1_000_000.0
    for _ in range(requests):
        now += rng.expovariate(1.0 / 20.0)  # ~20 s between requests
        url = rng.choice(urls)
        records.append(
            LogRecord(
                timestamp=now,
                source=f"proxy-{rng.randrange(sources)}",
                url=url,
                size=500 + 100 * (len(url) % 7),
            )
        )
    return Trace(records)


class SettableClock:
    """Returns whatever the test last pinned it to."""

    def __init__(self, value=0.0):
        self.value = value

    def __call__(self):
        return self.value


def score_records(records, piggyback_urls_for):
    """Apply the replay engine's scoring rules to externally supplied
    piggyback messages.

    *piggyback_urls_for(record)* performs the request (however the path
    under test does it) and returns the piggybacked URLs, or None when no
    message was attached.  Mirrors steps 1 and 4 of the per-record
    reference replay (``replay_oracle.replay``), with the wire supplying
    step 3's filtered message.
    """
    metrics = ReplayMetrics()
    states = {}
    for record in records:
        source, url, now = record.source, record.url, record.timestamp
        state = states.get(source)
        if state is None:
            state = SourceState()
            states[source] = state

        metrics.requests += 1
        predicted = state.carried.within(url, now, WINDOW)
        if predicted:
            metrics.predicted_requests += 1
        age = state.requested.age(url, now)
        if age is not None and age <= ReplayConfig().history_window:
            metrics.prev_occurrence_within_history += 1
            if age <= ReplayConfig().recent_window:
                metrics.prev_occurrence_recent += 1
            elif predicted:
                metrics.updated_by_piggyback += 1
        if state.resolve_prediction(url, now, WINDOW):
            metrics.predictions_true += 1
        state.carried.forget(url)
        state.requested.record(url, now)

        element_urls = piggyback_urls_for(record)
        if element_urls is None:
            continue
        metrics.piggyback_messages += 1
        metrics.piggyback_elements += len(element_urls)
        for element_url in element_urls:
            is_new = not state.carried.within(element_url, now, WINDOW)
            state.carried.record(element_url, now)
            if is_new:
                metrics.predictions_opened += 1
                state.open_prediction(element_url, now)
    return metrics


def run_live(trace):
    """Send every record over a real socket; score the wire piggybacks."""
    resources = ResourceStore()
    for record in trace:
        if record.url not in resources:
            resources.add(record.url, size=record.size, last_modified=100.0)
    engine = PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )
    clock = SettableClock()
    with PiggybackHttpServer(engine, site_host=HOST, clock=clock) as origin:
        connection = HttpConnection(origin.address, origin.port, timeout=10.0)
        try:

            def piggyback_urls_for(record):
                clock.value = record.timestamp
                _, _, path = record.url.partition("/")
                request = HttpRequest(method="GET", target="/" + path)
                request.headers.set("Host", HOST)
                request.headers.set("X-Proxy-Name", record.source)
                request.headers.set("TE", "chunked")
                request.headers.set("Piggy-filter", f"maxpiggy={MAX_ELEMENTS}")
                response = connection.request_once(request)
                assert response.status == 200
                trailer = response.trailers.get(P_VOLUME_HEADER)
                if trailer is None:
                    return None
                return parse_p_volume(trailer).urls()

            metrics = score_records(list(trace), piggyback_urls_for)
        finally:
            connection.close()
    return metrics


@pytest.fixture(scope="module")
def both_metrics():
    trace = synthetic_trace()
    store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    simulated = replay(
        trace,
        store,
        ReplayConfig(prediction_window=WINDOW, max_elements=MAX_ELEMENTS),
    )
    live = run_live(trace)
    return simulated, live


def test_traffic_reconciles_exactly(both_metrics):
    simulated, live = both_metrics
    assert live.requests == simulated.requests
    assert live.piggyback_messages == simulated.piggyback_messages
    assert live.piggyback_elements == simulated.piggyback_elements


def test_fraction_predicted_agrees(both_metrics):
    simulated, live = both_metrics
    assert simulated.fraction_predicted > 0.0
    assert abs(live.fraction_predicted - simulated.fraction_predicted) <= TOLERANCE


def test_true_prediction_fraction_agrees(both_metrics):
    simulated, live = both_metrics
    assert simulated.predictions_opened > 0
    assert (
        abs(live.true_prediction_fraction - simulated.true_prediction_fraction)
        <= TOLERANCE
    )


def test_update_fraction_agrees(both_metrics):
    simulated, live = both_metrics
    assert abs(live.update_fraction - simulated.update_fraction) <= TOLERANCE
