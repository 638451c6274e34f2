"""``repro.codec`` — the unified serialization layer.

One tagged binary value codec (:mod:`repro.codec.values`) underlies
both the write-ahead log and the wire protocol; on top of it sit the
v2 binary frames (:mod:`repro.codec.frames`), the typed op registry
(:mod:`repro.codec.ops`), and the error payload mapping
(:mod:`repro.codec.errors`) shared by every front-end.
"""
