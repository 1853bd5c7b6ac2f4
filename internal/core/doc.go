// Package core implements the hypercube keyword index and search
// scheme of Joung, Fang and Yang (ICDCS 2005), Section 3.
//
// Every object σ with keyword set K_σ is indexed at exactly one logical
// node of an r-dimensional hypercube: the vertex F_h(K_σ) whose one-bits
// are the hashed dimensions of σ's keywords. Logical vertices are mapped
// onto physical DHT nodes by the hash mapping g (see Resolver). The
// package provides:
//
//   - Server: the per-physical-node index service holding the index
//     tables Tbl_u of every logical vertex assigned to it, the FIFO
//     result cache of Section 4, and the root-side orchestration of the
//     superset-search protocol (T_QUERY / T_CONT / T_STOP).
//   - Client: the initiator-side API — Insert, Delete, PinSearch,
//     SupersetSearch, and cumulative search cursors.
//   - Decomposed: the multi-hypercube decomposition of Section 3.4.
//   - Ranking helpers exploiting Lemma 3.2 (results grouped by the
//     number of extra keywords).
//
// Wire-protocol note: in the paper, every node w visited during a
// superset search sends its matching object IDs "directly to u" (the
// initiator) while the traversal bookkeeping (T_CONT/T_STOP) flows back
// to the root v. This implementation runs on a request/response
// transport, so w's matches travel to the root inside the T_CONT
// response and the root forwards the accumulated results to the
// initiator in its final response. The number of hypercube nodes
// contacted and the number of messages per node (one query, one reply)
// are identical to the paper's protocol; only the carrier of the
// result bytes differs, and the T_CONT reply carries no child list L:
// L depends only on the vertex and dimension the root sent, so the
// root generates it.
package core
