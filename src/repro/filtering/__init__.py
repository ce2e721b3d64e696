"""Preprocessing: NLF binary encoding and the candidate table (§IV-B).

The data vertices are encoded once at initialization; each batch only
re-encodes vertices whose neighborhoods changed, and the candidate
table refreshes just those rows — the paper's answer to re-encoding
cost dominating the pipeline.
"""

from repro.filtering.encoding import EncodingSchema, EncodingTable
from repro.filtering.candidate_table import CandidateStack, CandidateTable

__all__ = ["EncodingSchema", "EncodingTable", "CandidateStack", "CandidateTable"]
