"""In-network computation offloading toolkit.

Modules by concern:

* ``_inputs``: the input reading and number checks behind every loader
* ``topology``: network graphs, roles, shortest-path routing
* ``workload``: arrival streams and per-node rate/service estimation
* ``simulator``: discrete-event engine, admission strategies (none,
  passive, proactive) and load gossip, presets, metrics, exports
* ``emit``: the JSON and text writers behind every output, and the series rows
* ``partition``: call graphs, betweenness clustering, modularity
* ``decision``: offload validity gates and partition selection
* ``appstats``: package overlap and dedup storage savings
* ``cli``: the ``offloadsim`` command
"""

__version__ = "0.1.0"
