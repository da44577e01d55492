"""Rendered report tables: Table 1 and the S5 compliance comparison.

Shared by the benchmark harness (``benchmarks/``) and the command line
(``cheri-run --report ...``).
"""

from __future__ import annotations

from repro.testsuite.categories import CATEGORIES, Category, TOTAL_TESTS


def render_table1() -> str:
    """The paper's Table 1, regenerated from the assembled suite."""
    from repro.testsuite.suite import all_cases, table1_counts
    counts = table1_counts()
    lines = ["Tests  Description",
             "-----  -----------"]
    for category in Category:
        want, desc = CATEGORIES[category]
        have = counts[category]
        marker = "" if want == have else f"   !! paper says {want}"
        lines.append(f"{have:5d}  {desc}{marker}")
    lines.append("-----")
    lines.append(f"{len(all_cases())} distinct tests "
                 f"(paper: {TOTAL_TESTS}); "
                 f"{sum(counts.values())} category memberships")
    return "\n".join(lines)


def render_compliance(reports) -> str:
    """The S5-style compliance summary over a list of SuiteReports."""
    lines = ["Implementation                    pass  fail  no-claim",
             "--------------------------------  ----  ----  --------"]
    for rep in reports:
        lines.append(f"{rep.impl.name:32s}  {rep.passed:4d}  "
                     f"{rep.failed:4d}  {rep.unclaimed:8d}")
    lines.append("")
    lines.append("Divergences from the reference outcome (all licensed "
                 "by UB / optimisation):")
    reference = {r.case.name: r.outcome for r in reports[0].results}
    for rep in reports[1:]:
        diffs = [res.case.name for res in rep.results
                 if res.outcome.kind != reference[res.case.name].kind]
        lines.append(f"  {rep.impl.name:30s} {len(diffs):3d} tests with a "
                     f"different outcome kind")
    return "\n".join(lines) + "\n"


def render_fuzz_summary(report) -> str:
    """Summary of one differential-fuzzing run (``repro fuzz``).

    Mirrors the compliance table's shape: per-group divergence counts
    with their known-cause tags, and findings called out explicitly,
    each with its minimized reproducer.  Findings are always minimized;
    known-cause groups are minimized only when ``--save-known`` writes
    them, and this summary prints no program for them.
    """
    lines = [f"Differential fuzz: seed {report.seed}, "
             f"{report.iterations} programs, "
             f"{report.elapsed:.1f}s",
             "",
             "Reference outcomes:"]
    for label in sorted(report.reference_counts):
        lines.append(f"  {report.reference_counts[label]:5d}  {label}")
    lines.append("")
    if not report.groups:
        lines.append("No divergences from the reference outcome.")
    else:
        lines.append(f"Divergence groups ({report.divergence_total} "
                     f"divergent runs total):")
        lines.append("  Implementation                   cause"
                     "                 ref -> observed")
        for group in report.sorted_groups():
            lines.append("  " + group.describe())
    findings = report.findings
    lines.append("")
    if findings:
        lines.append(f"!! {len(findings)} finding group(s) without a known "
                     f"cause:")
        for group in findings:
            lines.append(f"  {group.describe()}")
            div = group.example_divergence
            if div is not None and div.evidence is not None:
                lines.append(f"  reference explaining event: "
                             f"step {div.evidence.get('step', 0)} "
                             f"{div.evidence.get('kind', '')} "
                             f"{div.evidence.get('what', '')}")
            if group.minimized_source:
                lines.append("  minimized reproducer:")
                lines.extend("    " + line for line in
                             group.minimized_source.splitlines())
    else:
        lines.append("Zero unexplained divergences and zero interpreter "
                     "crashes: every divergence carries a known-cause tag.")
    if report.corpus_paths:
        lines.append("")
        lines.append(f"Corpus: wrote {len(report.corpus_paths)} minimized "
                     f"case(s):")
        lines.extend(f"  {path}" for path in report.corpus_paths)
    if report.trace_paths:
        lines.append("")
        lines.append(f"Traces: wrote {len(report.trace_paths)} reference "
                     f"trace(s):")
        lines.extend(f"  {path}" for path in report.trace_paths)
    return "\n".join(lines) + "\n"


def render_campaign_summary(report) -> str:
    """Summary of one guided-campaign invocation (``repro fuzz
    --guided``): window, corpus growth, coverage, and distinct bugs."""
    shard = f"{report.shard[0]}/{report.shard[1]}"
    lines = [f"Guided fuzz campaign: seed {report.seed}, shard {shard}, "
             f"window {report.start_index}..{report.next_index} "
             f"({report.processed} candidates, {report.elapsed:.1f}s)"]
    derived = ", ".join(f"{report.derived.get(k, 0)} {k}"
                        for k in ("fresh", "mutant"))
    lines.append(f"  candidates: {derived}"
                 + (f", {len(report.quarantined)} quarantined"
                    if report.quarantined else ""))
    lines.append(f"  corpus: {report.corpus_size} seed(s) "
                 f"(+{len(report.new_seeds)} new) at {report.corpus_dir}")
    lines.append(f"  coverage: {len(report.covered.ops)} core ops, "
                 f"{len(report.covered.ub)} UB kinds, "
                 f"{len(report.covered.events)} event signatures "
                 f"(+{report.new_keys} keys beyond the snapshot)")
    if report.reference_counts:
        counts = ", ".join(f"{report.reference_counts[k]} {k}"
                           for k in sorted(report.reference_counts))
        lines.append(f"  reference outcomes: {counts}")
    if report.findings:
        total = sum(len(f.witnesses) for f in report.findings)
        lines.append(f"!! {len(report.findings)} distinct bug(s) on "
                     f"record ({total} witness(es), "
                     f"{len(report.new_bugs)} new this run):")
        for record in report.findings:
            lines.append(f"  {record.digest}  signature="
                         f"{record.signature}  "
                         f"x{len(record.witnesses)} witness(es)")
    else:
        lines.append("  distinct bugs: none on record")
    return "\n".join(lines) + "\n"


def render_failures(reports) -> str:
    """Detail lines for any expectation failures (normally empty)."""
    lines = []
    for rep in reports:
        for res in rep.failures():
            lines.append(
                f"{rep.impl.name}: {res.case.name}: expected "
                f"{res.expected.describe()}, got {res.outcome.describe()}"
                f" [{res.outcome.detail}]")
    return "\n".join(lines)
