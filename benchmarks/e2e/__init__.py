"""End-to-end benchmark of the Lotus reproduction (see README.md here).

Four workloads, seven end-to-end metrics and a per-layer budget that
closes against a serial epoch; declared to the driver by the root
``BENCHMARK.json``. Every layer is measured from outside, by timing
calls into its public functions — nothing under ``src/`` knows this
package exists.
"""
