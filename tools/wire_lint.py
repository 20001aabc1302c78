#!/usr/bin/env python3
"""Validate the front door's live /metrics exposition, with no third-party
dependencies.  Wired into CTest under the `bench` label: CI runs
examples/net_quickstart against a real loopback EvalServer, scrapes
GET /metrics over HTTP, and lints the scraped text here -- so a malformed
or incoherent exposition fails the build rather than a Prometheus scrape
in production.

    tools/wire_lint.py metrics.prom

Checks:
  * every non-comment line matches  name{labels} value  with a float value;
  * every sample is preceded by # HELP and # TYPE lines for its family;
  * TYPE is counter/gauge/histogram and counter samples are finite, >= 0;
  * the net-server families are present (connections, frames, rejects,
    HTTP requests, active gauge) alongside the service families;
  * the books balance: completed + failed <= submitted at the service
    level AND per tenant label; frames_tx >= rejects_sent; every tenant
    with a rejected count also appears in the submitted-or-rejected set;
    every cofhee_chip_<x>_total family whose cofhee_service_<x>_total twin
    is in the scrape sums over its chip labels to the service value
    (relative 1e-9) -- the pairs come from the scrape, not a list here.

Exits 0 when clean, 1 with a per-problem report otherwise.
"""

import argparse
import math
import re
import sys
from pathlib import Path

METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[-+0-9.eE]+|NaN|[+-]Inf)$"
)
LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

REQUIRED_FAMILIES = [
    "cofhee_net_connections_total",
    "cofhee_net_connections_active",
    "cofhee_net_frames_rx_total",
    "cofhee_net_frames_tx_total",
    "cofhee_net_rejects_sent_total",
    "cofhee_net_http_requests_total",
    "cofhee_service_requests_submitted_total",
    "cofhee_service_requests_completed_total",
    "cofhee_tenant_submitted_total",
]


def parse(path: Path):
    """Return (samples, types, errors).

    samples: {family: {labels_tuple: value}};  types: {family: type}.
    """
    errors = []
    samples = {}
    types = {}
    helped = set()
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        return {}, {}, [f"{path}: unreadable: {e}"]
    for no, line in enumerate(lines, 1):
        where = f"{path}:{no}"
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                errors.append(f"{where}: HELP without text")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3] not in ("counter", "gauge", "histogram"):
                errors.append(f"{where}: TYPE must be counter/gauge/histogram")
            else:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = METRIC_LINE.match(line)
        if m is None:
            errors.append(f"{where}: not a valid sample line: {line!r}")
            continue
        name = m.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name) \
            if types.get(re.sub(r"_(bucket|sum|count)$", "", name)) == "histogram" \
            else name
        if family not in types:
            errors.append(f"{where}: sample {name!r} has no preceding # TYPE")
        if family not in helped:
            errors.append(f"{where}: sample {name!r} has no preceding # HELP")
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"{where}: unparsable value {m.group('value')!r}")
            continue
        if types.get(family) == "counter" and not (
            math.isfinite(value) and value >= 0
        ):
            errors.append(f"{where}: counter {name!r} must be finite and >= 0")
        labels = tuple(sorted(LABEL.findall(m.group("labels") or "")))
        fam = samples.setdefault(name, {})
        if labels in fam:
            errors.append(f"{where}: duplicate sample {name}{dict(labels)}")
        fam[labels] = value
    return samples, types, errors


def total(samples, family):
    return sum(samples.get(family, {}).values())


def by_label(samples, family, key="tenant"):
    out = {}
    for labels, value in samples.get(family, {}).items():
        for k, v in labels:
            if k == key:
                out[v] = value
    return out


def lint(path: Path) -> list[str]:
    samples, _types, errors = parse(path)
    if not samples:
        return errors or [f"{path}: no samples at all"]

    for family in REQUIRED_FAMILIES:
        if family not in samples:
            errors.append(f"{path}: required family {family!r} is missing")

    # Service-level book balance: settled work cannot exceed admitted work.
    submitted = total(samples, "cofhee_service_requests_submitted_total")
    completed = total(samples, "cofhee_service_requests_completed_total")
    failed = total(samples, "cofhee_service_requests_failed_total")
    if completed + failed > submitted + 1e-9:
        errors.append(
            f"{path}: completed ({completed}) + failed ({failed}) exceeds "
            f"submitted ({submitted})"
        )

    # Per-tenant balance, and every rejected tenant must be accounted for.
    t_sub = by_label(samples, "cofhee_tenant_submitted_total")
    t_done = by_label(samples, "cofhee_tenant_completed_total")
    t_rej = by_label(samples, "cofhee_tenant_rejected_total")
    for tenant, done in t_done.items():
        if done > t_sub.get(tenant, 0) + 1e-9:
            errors.append(
                f"{path}: tenant {tenant}: completed ({done}) exceeds "
                f"submitted ({t_sub.get(tenant, 0)})"
            )
    for tenant in t_rej:
        if tenant not in t_sub:
            errors.append(
                f"{path}: tenant {tenant} has rejections but no "
                f"cofhee_tenant_submitted_total sample"
            )

    # Per-chip books: a service-wide counter with a per-chip twin is the
    # sum of that twin over chips.
    for family in sorted(samples):
        m = re.fullmatch(r"cofhee_chip_(\w+)_total", family)
        twin = f"cofhee_service_{m.group(1)}_total" if m else None
        if twin not in samples:
            continue
        service_value = total(samples, twin)
        chip_sum = total(samples, family)
        if abs(service_value - chip_sum) > 1e-9 * max(abs(service_value), abs(chip_sum)):
            errors.append(
                f"{path}: {twin} ({service_value}) != sum of {family} over "
                f"chips ({chip_sum})"
            )

    # Wire-level sanity: every reject rode a tx frame; the active gauge is
    # a plausible instantaneous count.
    if total(samples, "cofhee_net_frames_tx_total") < total(
        samples, "cofhee_net_rejects_sent_total"
    ):
        errors.append(f"{path}: frames_tx < rejects_sent -- rejects not framed?")
    active = total(samples, "cofhee_net_connections_active")
    if active < 0 or active > total(samples, "cofhee_net_connections_total"):
        errors.append(f"{path}: implausible connections_active ({active})")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", type=Path, help="scraped /metrics text")
    args = ap.parse_args()
    errors = lint(args.metrics)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"wire_lint: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"wire_lint: {args.metrics} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
