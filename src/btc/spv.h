// SPV artifacts: Merkle inclusion proofs tying a txid to a block header,
// and header-chain evidence validation (linkage + per-header PoW + total
// work). The PayJudger contract runs exactly this logic on-chain; keeping
// it here lets the contract, merchants and tests share one implementation.
#pragma once

#include <optional>
#include <vector>

#include "btc/block.h"
#include "btc/header.h"
#include "common/result.h"
#include "crypto/merkle.h"

namespace btcfast::btc {

/// Proof that a transaction is included in the block with a given header.
struct TxInclusionProof {
  Txid txid{};
  BlockHeader header{};
  crypto::MerkleBranch branch{};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<TxInclusionProof> deserialize(ByteSpan data);
};

/// Build an inclusion proof for `txid` from a full block; nullopt if the
/// tx is not in the block.
[[nodiscard]] std::optional<TxInclusionProof> make_inclusion_proof(const Block& block,
                                                                   const Txid& txid);

/// Verify branch -> header.merkle_root. Does NOT check the header's PoW;
/// combine with verify_header_chain.
[[nodiscard]] bool verify_inclusion_proof(const TxInclusionProof& proof) noexcept;

/// Result of validating a contiguous header chain.
struct HeaderChainSummary {
  crypto::U256 total_work;
  BlockHash tip_hash{};
  std::uint32_t length = 0;
};

/// Validates that headers[0].prev_hash == anchor, every header links to
/// its predecessor, and each header satisfies its own PoW at or below
/// `pow_limit`. Returns the cumulative work on success.
[[nodiscard]] Result<HeaderChainSummary> verify_header_chain(
    const BlockHash& anchor, const std::vector<BlockHeader>& headers,
    const crypto::U256& pow_limit);

/// Serialization for shipping header chains as dispute evidence: a
/// varint count, then exactly count x 80 raw header bytes.
[[nodiscard]] Bytes serialize_headers(const std::vector<BlockHeader>& headers);
/// The one parser of that framing: a view of the 80-byte-per-header run
/// inside `framed` (count = size / 80), or nullopt unless the count is
/// followed by exactly count x 80 bytes with nothing after them. Caps on
/// the count are the caller's.
[[nodiscard]] std::optional<ByteSpan> header_run(ByteSpan framed);
[[nodiscard]] std::optional<std::vector<BlockHeader>> deserialize_headers(ByteSpan data);

}  // namespace btcfast::btc
