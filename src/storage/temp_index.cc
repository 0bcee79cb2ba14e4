#include "storage/temp_index.h"

#include <algorithm>

#include "common/hash.h"

namespace dbs3 {

TempIndex::TempIndex(const Fragment& fragment, size_t key_column)
    : fragment_(fragment), key_column_(key_column) {
  const size_t n = fragment.tuples.size();
  if (n == 0) return;
  // Power-of-two bucket count at load factor <= 0.5, so most probes
  // resolve at the first chain node and the bucket lookup is a mask, not a
  // modulo. The extra head slots cost 4 bytes per tuple — far less than
  // the chain-collision walks they remove from every probe.
  size_t buckets = 1;
  while (buckets < 2 * n) buckets <<= 1;
  head_.assign(buckets, kNone);
  mask_ = buckets - 1;
  next_.assign(n, kNone);
  hashes_.resize(n);
  // Hash every key once; when the whole column is int64 (the common join
  // key shape), also cache the keys inline so probes confirm against a
  // flat array instead of dereferencing the fragment tuple's heap-held
  // value vector.
  int_nodes_.resize(n);
  int_keyed_ = true;
  for (uint32_t i = 0; i < n; ++i) {
    const Value& key = fragment.tuples[i].at(key_column_);
    hashes_[i] = key.Hash();
    if (const int64_t* k = key.TryInt(); k != nullptr) {
      int_nodes_[i].key = *k;
    } else {
      int_keyed_ = false;
    }
  }
  if (!int_keyed_) {
    int_nodes_.clear();
    int_nodes_.shrink_to_fit();
  }
  // Insert in reverse: pushing at the chain head then yields chains in
  // ascending tuple order, preserving the match order of the previous
  // map-of-vectors layout.
  for (uint32_t i = static_cast<uint32_t>(n); i-- > 0;) {
    const size_t b = hashes_[i] & mask_;
    next_[i] = head_[b];
    head_[b] = i;
  }
  if (int_keyed_) {
    for (uint32_t i = 0; i < n; ++i) int_nodes_[i].next = next_[i];
  }
  // A tuple is a distinct key iff the first chain match for its own key is
  // itself. Expected O(n) at load factor <= 0.5.
  for (uint32_t i = 0; i < n; ++i) {
    if (FirstMatch(hashes_[i], fragment.tuples[i].at(key_column_)) == i) {
      ++distinct_keys_;
    }
  }
}

void TempIndex::IntResolveTile(uint32_t* pos, const int64_t* keys,
                               size_t count, uint32_t* out_first) const {
  // Chains are resolved in *waves* over a compacted active list: one chain
  // step per wave for every still-unresolved key, survivors kept
  // branch-free. A scalar chain walk takes an unpredictable branch between
  // any two dependent loads, and every mispredict discards the speculative
  // lookahead that overlaps the misses of neighbouring keys; the
  // wave/compaction form keeps a whole tile's loads in flight no matter
  // how the per-key branches resolve. The confirm is a single flat load
  // from the inline key cache — exact, so no cached-hash prefilter.
  uint32_t act[kProbeTile];  // Compacted list of unresolved slot indices.
  // Step 0, run for every slot without compaction: at load factor <= 0.5
  // most probes either land on an empty bucket or match the first chain
  // node, so the survivor set that needs the wave machinery is small.
  size_t active = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t p = pos[i];
    if (p == kNone) {
      out_first[i] = kNone;
      continue;
    }
    const IntNode node = int_nodes_[p];
    const bool hit = node.key == keys[i];
    out_first[i] = hit ? p : kNone;
    const uint32_t link = hit ? kNone : node.next;
    pos[i] = link;
    act[active] = static_cast<uint32_t>(i);
    active += (link != kNone) ? 1 : 0;
  }
  while (active > 0) {
    size_t survivors = 0;
    for (size_t k = 0; k < active; ++k) {
      const uint32_t i = act[k];
      const uint32_t p = pos[i];
      const IntNode node = int_nodes_[p];
      if (node.key == keys[i]) {
        out_first[i] = p;
        continue;
      }
      const uint32_t link = node.next;
      pos[i] = link;
      act[survivors] = i;
      survivors += (link != kNone) ? 1 : 0;
    }
    for (size_t k = 0; k < survivors; ++k) {
      const uint32_t p = pos[act[k]];
      __builtin_prefetch(&int_nodes_[p]);
    }
    active = survivors;
  }
}

void TempIndex::ProbeKeys(std::span<const int64_t> keys,
                          uint32_t* out_first) const {
  const size_t n = keys.size();
  if (head_.empty()) {
    for (size_t i = 0; i < n; ++i) out_first[i] = kNone;
    return;
  }
  // Three-stage tile pipeline: while tile t resolves its chains, tile
  // t+1's chain heads are being loaded (their lines prefetched one stage
  // earlier) and its first chain nodes prefetched, and tile t+2's bucket
  // indexes are computed (pure ALU) and head lines prefetched. Every
  // random load thus has a full tile of work between prefetch issue and
  // use — the probe stream's misses overlap instead of serializing.
  uint32_t buckets[2][kProbeTile];  // Slot t+2 is written, t+1 is read.
  uint32_t pos[2][kProbeTile];      // Slot t+1 is written, t is read.
  const auto tile_count = [n](size_t base) {
    return base < n ? std::min(kProbeTile, n - base) : size_t{0};
  };
  const auto compute_buckets = [&](size_t base, uint32_t* out) {
    const size_t count = tile_count(base);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t b = static_cast<uint32_t>(
          HashInt64(static_cast<uint64_t>(keys[base + i])) & mask_);
      out[i] = b;
      __builtin_prefetch(&head_[b]);
    }
  };
  const auto load_heads = [&](size_t base, const uint32_t* buckets_in,
                              uint32_t* pos_out) {
    const size_t count = tile_count(base);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t p = head_[buckets_in[i]];
      pos_out[i] = p;
      if (p != kNone) __builtin_prefetch(&int_nodes_[p]);
    }
  };
  compute_buckets(0, buckets[0]);
  load_heads(0, buckets[0], pos[0]);
  compute_buckets(kProbeTile, buckets[1]);
  for (size_t base = 0; base < n; base += kProbeTile) {
    const size_t t = (base / kProbeTile) % 2;
    compute_buckets(base + 2 * kProbeTile, buckets[t]);
    load_heads(base + kProbeTile, buckets[1 - t], pos[1 - t]);
    IntResolveTile(pos[t], keys.data() + base, tile_count(base),
                   out_first + base);
  }
}

void TempIndex::ProbeHashed(std::span<const uint64_t> hashes,
                            const Value* const* keys,
                            uint32_t* out_first) const {
  const size_t n = hashes.size();
  if (head_.empty()) {
    for (size_t i = 0; i < n; ++i) out_first[i] = kNone;
    return;
  }
  if (int_keyed_) {
    // Extract the probe keys tile by tile and reuse the int wave. A
    // non-int probe key cannot equal any int key; the rare tile holding
    // one falls back to per-key resolution.
    for (size_t i = 0; i < std::min(kProbeTile, n); ++i) {
      __builtin_prefetch(&head_[hashes[i] & mask_]);
    }
    int64_t ikeys[kProbeTile];
    for (size_t base = 0; base < n; base += kProbeTile) {
      const size_t count = std::min(kProbeTile, n - base);
      const size_t next_end = std::min(base + 2 * kProbeTile, n);
      for (size_t j = base + kProbeTile; j < next_end; ++j) {
        __builtin_prefetch(&head_[hashes[j] & mask_]);
      }
      bool all_int = true;
      for (size_t i = 0; i < count; ++i) {
        const int64_t* k = keys[base + i]->TryInt();
        all_int &= (k != nullptr);
        ikeys[i] = (k != nullptr) ? *k : 0;
      }
      if (all_int) {
        uint32_t pos[kProbeTile];
        for (size_t i = 0; i < count; ++i) {
          pos[i] = head_[hashes[base + i] & mask_];
        }
        IntResolveTile(pos, ikeys, count, out_first + base);
      } else {
        for (size_t i = 0; i < count; ++i) {
          out_first[base + i] = FirstMatch(hashes[base + i], *keys[base + i]);
        }
      }
    }
    return;
  }
  // Generic (string- or mixed-keyed) index: wave resolution over the
  // cached hashes, confirming by Value equality only on hash match.
  constexpr size_t kTile = kProbeTile;
  uint32_t pos[kTile];  // Current chain node of each unresolved tile slot.
  uint32_t act[kTile];  // Compacted list of unresolved slot indices.
  for (size_t i = 0; i < std::min(kTile, n); ++i) {
    __builtin_prefetch(&head_[hashes[i] & mask_]);
  }
  for (size_t base = 0; base < n; base += kTile) {
    const size_t count = std::min(kTile, n - base);
    const size_t next_end = std::min(base + 2 * kTile, n);
    for (size_t j = base + kTile; j < next_end; ++j) {
      __builtin_prefetch(&head_[hashes[j] & mask_]);
    }
    size_t active = 0;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t first = head_[hashes[base + i] & mask_];
      pos[i] = first;
      out_first[base + i] = kNone;
      act[active] = static_cast<uint32_t>(i);
      active += (first != kNone) ? 1 : 0;
    }
    while (active > 0) {
      size_t survivors = 0;
      for (size_t k = 0; k < active; ++k) {
        const uint32_t i = act[k];
        const uint32_t p = pos[i];
        // A 64-bit hash match is almost always a true match, so this
        // branch pair predicts well; the hash-mismatch steps advance the
        // chain without touching the tuple.
        if (hashes_[p] == hashes[base + i] &&
            fragment_.tuples[p].at(key_column_) == *keys[base + i]) {
          out_first[base + i] = p;
          continue;
        }
        const uint32_t link = next_[p];
        pos[i] = link;
        act[survivors] = i;
        survivors += (link != kNone) ? 1 : 0;
      }
      for (size_t k = 0; k < survivors; ++k) {
        const uint32_t p = pos[act[k]];
        __builtin_prefetch(&hashes_[p]);
        __builtin_prefetch(&next_[p]);
      }
      active = survivors;
    }
  }
}

std::vector<uint32_t> TempIndex::Lookup(const Value& key) const {
  std::vector<uint32_t> out;
  for (uint32_t i : Probe(key)) out.push_back(i);
  return out;
}

}  // namespace dbs3
