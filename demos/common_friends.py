"""Walkthrough: common friends of three user pairs on four nodes.

Six messages hold the friend lists of users A..F.  Four nodes each observed
a random-looking subset, and we want the common friends of {A,B}, {B,C}
and {D,E} computed on three distinct nodes with as few broadcasts as
possible.
"""

from flexshuffle import (
    build_coverage_graph,
    common_friends,
    demo_instance,
    demo_payloads,
    run_demo,
    solve,
)

inst = demo_instance()
payloads = demo_payloads()
report = solve(inst)

print("=" * 64)
print("side information")
print("=" * 64)
for i, held in enumerate(inst.placement.cells.tolist()):
    names = ", ".join(payloads[j].owner for j, h in enumerate(held) if h)
    print(f"  node {i}: {{{names}}}")
print("functions:", [tuple(payloads[j].owner for j in pair) for pair in inst.workload.functions])

print()
print("=" * 64)
print("coverage: who can compute what with zero communication?")
print("=" * 64)
graph = build_coverage_graph(inst)
for k, nbrs in enumerate(graph.adjacency):
    print(f"  function {k}: covering nodes = {list(nbrs) or 'none'}")
print("minimum uncovered functions:", report.raw.uncovered)

print()
print("=" * 64)
print("how many broadcasts do we need?")
print("=" * 64)
raw, coded = report.raw, report.coded
print(f"  raw messages ({report.raw_solver}):        {raw.size}  broadcast = "
      f"{[payloads[j].owner for j in raw.broadcast_messages]}")
print(f"  intermediate values:         {report.inter.total}  (one per missing input)")
pretty = [
    "+".join(sorted(payloads[j].owner for j in support)) for support in coded.broadcasts
]
print(f"  coded (XOR of raw, exact):   {coded.count}  broadcast = {pretty} "
      f"from nodes {list(coded.senders)}")

print()
print("=" * 64)
print("executing the two-broadcast coded plan")
print("=" * 64)
transcript = run_demo()
print(transcript.render())
for k, pair in enumerate(inst.workload.functions):
    owners = tuple(payloads[j].owner for j in pair)
    print(f"  common friends of {owners}: {transcript.outputs[k]} "
          f"(oracle: {common_friends(payloads, pair)})")
