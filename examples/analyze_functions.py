#!/usr/bin/env python3
"""Developer tool: what the static analyzer sees in your functions.

Runs both analysis engines — the IR slice (which derives the runnable
f^rw from the compiled function) and the symbolic executor (which
enumerates paths and access patterns) — over all 27 functions of the five benchmark applications and
prints a Table-1-style report, plus a deep dive into one function from
each engine's perspective.

Run:  python examples/analyze_functions.py
"""

from repro.analysis import analyze_source, extract_access_sites, symbolic_analyze
from repro.apps import all_apps
from repro.bench import print_table


def main() -> None:
    rows = []
    for app in all_apps():
        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            sym = symbolic_analyze(fn.spec.source)
            rows.append([
                fn.function_id,
                analyzed.writes,
                "Yes*" if analyzed.dependent_reads else "Yes",
                f"{analyzed.slice_ratio:.2f}",
                len(sym.paths),
                len(sym.reads),
                len(sym.writes),
            ])
    print_table(
        ["function", "writes", "analyzable", "slice ratio",
         "paths", "read sites", "write sites"],
        rows,
        title="All 27 functions through both analysis engines",
    )

    dependent = [r[0] for r in rows if r[2] == "Yes*"]
    print(f"Dependent-read functions (paper says three): {dependent}\n")

    # Deep dive: the paper's flagship dependent-access example.
    from repro.apps import social_media_app

    post = social_media_app().function("social.post")
    analyzed = analyze_source(post.spec.source)
    print("=== social.post: the derived f^rw (IR slice) ===")
    print(analyzed.frw.disassemble())
    print()
    print("=== social.post: f^rw's IR access sites ===")
    sites = extract_access_sites(analyzed.frw)
    for site in sites:
        mult = "per-element" if site.in_loop else "once"
        print(f"  {site.kind:5s} {site.table}/{site.key_pattern}  ({mult})")
    assert {s.table for s in sites} == {"posts", "graph", "timelines"}
    print()
    print("=== social.post: symbolic access patterns ===")
    sym = symbolic_analyze(post.spec.source)
    for site in sym.access_sites():
        mult = "per-element" if site.multiplicity == "many" else "once"
        dep = " [dependent]" if site.dependent else ""
        print(f"  {site.kind:5s} {site.table}/{site.key_pattern}  ({mult}){dep}")
        if site.path_condition != "true":
            print(f"        when: {site.path_condition}")


if __name__ == "__main__":
    main()
