#include "btc/spv.h"

#include "common/serialize.h"

namespace btcfast::btc {

Bytes TxInclusionProof::serialize() const {
  Writer w;
  w.bytes({txid.bytes.data(), txid.bytes.size()});
  w.bytes(header.serialize());
  w.u32le(branch.index);
  w.varint(branch.siblings.size());
  for (const auto& sib : branch.siblings) w.bytes({sib.data(), sib.size()});
  return std::move(w).take();
}

std::optional<TxInclusionProof> TxInclusionProof::deserialize(ByteSpan data) {
  Reader r(data);
  TxInclusionProof proof;
  auto txid = r.bytes(32);
  auto header_bytes = r.bytes(80);
  auto index = r.u32le();
  auto count = r.varint();
  if (!txid || !header_bytes || !index || !count || *count > 64) return std::nullopt;
  proof.txid.bytes = to_array<32>(*txid);
  auto header = BlockHeader::deserialize(*header_bytes);
  if (!header) return std::nullopt;
  proof.header = *header;
  proof.branch.index = *index;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto sib = r.bytes(32);
    if (!sib) return std::nullopt;
    proof.branch.siblings.push_back(to_array<32>(*sib));
  }
  if (!r.at_end()) return std::nullopt;
  return proof;
}

std::optional<TxInclusionProof> make_inclusion_proof(const Block& block, const Txid& txid) {
  const auto leaves = block.txid_leaves();
  for (std::uint32_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i] == txid.bytes) {
      TxInclusionProof proof;
      proof.txid = txid;
      proof.header = block.header;
      proof.branch = crypto::merkle_branch(leaves, i);
      return proof;
    }
  }
  return std::nullopt;
}

bool verify_inclusion_proof(const TxInclusionProof& proof) noexcept {
  return crypto::merkle_verify(proof.txid.bytes, proof.branch, proof.header.merkle_root.bytes);
}

Result<HeaderChainSummary> verify_header_chain(const BlockHash& anchor,
                                               const std::vector<BlockHeader>& headers,
                                               const crypto::U256& pow_limit) {
  if (headers.empty()) return make_error("evidence-empty", "no headers supplied");

  HeaderChainSummary summary;
  BlockHash expected_prev = anchor;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const BlockHeader& h = headers[i];
    if (h.prev_hash != expected_prev) {
      return make_error("evidence-broken-link", "header " + std::to_string(i) +
                                                    " does not extend its predecessor");
    }
    if (!check_proof_of_work(h, pow_limit)) {
      return make_error("evidence-bad-pow", "header " + std::to_string(i) + " fails PoW");
    }
    summary.total_work += header_work(h.bits);
    expected_prev = h.hash();
  }
  summary.tip_hash = expected_prev;
  summary.length = static_cast<std::uint32_t>(headers.size());
  return summary;
}

Bytes serialize_headers(const std::vector<BlockHeader>& headers) {
  Writer w;
  w.varint(headers.size());
  for (const auto& h : headers) w.bytes(h.serialize());
  return std::move(w).take();
}

std::optional<ByteSpan> header_run(ByteSpan framed) {
  Reader r(framed);
  const auto count = r.varint();
  if (!count || *count != r.remaining() / 80 || r.remaining() % 80 != 0) return std::nullopt;
  return framed.last(r.remaining());
}

std::optional<std::vector<BlockHeader>> deserialize_headers(ByteSpan data) {
  const auto run = header_run(data);
  if (!run) return std::nullopt;
  std::vector<BlockHeader> out;
  out.reserve(run->size() / 80);
  for (std::size_t at = 0; at < run->size(); at += 80) {
    out.push_back(*BlockHeader::deserialize(run->subspan(at, 80)));  // any 80 bytes decode
  }
  return out;
}

}  // namespace btcfast::btc
