"""Bounded reasoning over preference models and value-based case law.

The package decides queries about finite preference structures: a reflexive
transitive betterness relation over worlds, modal operators over its weak and
strict parts, global modalities, lifted preferences between propositions,
ceteris paribus variants, a defeasible conditional, and a small value
ontology (basic values, principles, aggregation, conflicts) used by the
shipped legal knowledge bases.  Queries are answered by bounded model search
with two independent engines that can cross-check each other.

The package re-exports nothing: import from its modules (`prefsat.kb`,
`prefsat.solver`, ...).  The command-line entry point is `prefsat.cli:main`.
"""
