"""Delay-tolerant consensus apportioning for fleets of local inverter systems.

The package splits into a protocol layer (topology, termination,
apportioning), a deterministic lockstep simulator (netsim), the fleet and
dispatch modeling (scenario), and a command-line front end (cli). Import
names from those modules; the package itself defines none.
"""
