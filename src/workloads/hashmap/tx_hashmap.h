// The §4.1 sensitivity benchmark's data structure: a hash map of `l` buckets,
// each a singly-linked list of nodes, all shared state in TxVar cells.
//
// Nodes are cache-line sized (one node = one line) so the paper's capacity
// calibration carries over directly: a lookup that traverses k nodes puts k
// lines in an HTM transaction's read set.
//
// Memory discipline under speculation: nodes are allocated *outside*
// critical sections (PrepareNode) and freed *outside* them once no thread
// can still reach them (FreeNode); aborted attempts therefore never leak or
// double-free. See DESIGN.md §6.
#ifndef RWLE_SRC_WORKLOADS_HASHMAP_TX_HASHMAP_H_
#define RWLE_SRC_WORKLOADS_HASHMAP_TX_HASHMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/memory/tx_var.h"

namespace rwle {

class TxHashMap {
 public:
  struct alignas(kCacheLineBytes) Node {
    explicit Node(std::uint64_t k, std::uint64_t v) : key(k), value(v), next(nullptr) {}
    TxVar<std::uint64_t> key;
    TxVar<std::uint64_t> value;
    TxVar<Node*> next;
  };

  explicit TxHashMap(std::size_t bucket_count) : buckets_(bucket_count) {
    RWLE_CHECK(bucket_count > 0);
  }

  ~TxHashMap() {
    for (auto& bucket : buckets_) {
      // Direct: destructor runs after all workers joined; no transaction
      // can observe the teardown walk.
      Node* node = bucket.head.LoadDirect();
      while (node != nullptr) {
        Node* next = node->next.LoadDirect();  // direct: teardown, as above
        delete node;
        node = next;
      }
    }
  }

  TxHashMap(const TxHashMap&) = delete;
  TxHashMap& operator=(const TxHashMap&) = delete;

  std::size_t bucket_count() const { return buckets_.size(); }

  // ---- Outside critical sections ----

  static Node* PrepareNode(std::uint64_t key, std::uint64_t value) {
    return new Node(key, value);
  }

  static void DiscardNode(Node* node) { delete node; }

  // Frees a node Remove unlinked. Returning from the unlinking Write() is
  // not enough: RW-LE's quiescence waits out readers, but a speculative
  // attempt on another thread that began before the unlink can still load
  // the node until its next doom check. Free only once every operation
  // that overlapped the unlink has finished (HashMapWorkload waits until
  // its workers have joined).
  static void FreeNode(Node* node) { delete node; }

  // Single-threaded setup: inserts `per_bucket` items into every bucket.
  // Key k lives in bucket k % bucket_count; keys are dense in
  // [0, per_bucket * bucket_count).
  void Populate(std::size_t per_bucket) {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      Node* head = nullptr;
      for (std::size_t i = 0; i < per_bucket; ++i) {
        const std::uint64_t key = i * buckets_.size() + b;
        Node* node = new Node(key, key * 3);
        node->next.StoreDirect(head);  // direct: single-threaded setup
        head = node;
      }
      buckets_[b].head.StoreDirect(head);  // direct: single-threaded setup
    }
  }

  // ---- Inside critical sections (read or write) ----

  // Traverses the key's bucket. Returns true and fills *value if present.
  bool Lookup(std::uint64_t key, std::uint64_t* value) const {
    const Bucket& bucket = BucketFor(key);
    for (Node* node = bucket.head.Load(); node != nullptr; node = node->next.Load()) {
      if (node->key.Load() == key) {
        if (value != nullptr) {
          *value = node->value.Load();
        }
        return true;
      }
    }
    return false;
  }

  // Sums values along the key's bucket, touching `limit` nodes at most.
  // Used to control read critical-section length independently of lookups.
  std::uint64_t ScanBucket(std::uint64_t key, std::size_t limit) const {
    const Bucket& bucket = BucketFor(key);
    std::uint64_t sum = 0;
    std::size_t touched = 0;
    for (Node* node = bucket.head.Load(); node != nullptr && touched < limit;
         node = node->next.Load(), ++touched) {
      sum += node->value.Load();
    }
    return sum;
  }

  // Inserts a prepared node at the bucket head unless the key is present.
  // Returns true if the node was linked in (caller must not reuse it).
  bool InsertPrepared(Node* node) {
    const std::uint64_t key = node->key.Load();
    if (Lookup(key, nullptr)) {
      return false;
    }
    Bucket& bucket = BucketFor(key);
    node->next.Store(bucket.head.Load());
    bucket.head.Store(node);
    return true;
  }

  // Overwrites the value if the key exists. Returns true on success.
  bool Update(std::uint64_t key, std::uint64_t value) {
    const Bucket& bucket = BucketFor(key);
    for (Node* node = bucket.head.Load(); node != nullptr; node = node->next.Load()) {
      if (node->key.Load() == key) {
        node->value.Store(value);
        return true;
      }
    }
    return false;
  }

  // Unlinks the key's node. The caller frees *unlinked with FreeNode once
  // no concurrent operation can still reach it (see FreeNode).
  bool Remove(std::uint64_t key, Node** unlinked) {
    *unlinked = nullptr;
    Bucket& bucket = BucketFor(key);
    Node* prev = nullptr;
    for (Node* node = bucket.head.Load(); node != nullptr; node = node->next.Load()) {
      if (node->key.Load() == key) {
        if (prev == nullptr) {
          bucket.head.Store(node->next.Load());
        } else {
          prev->next.Store(node->next.Load());
        }
        *unlinked = node;
        return true;
      }
      prev = node;
    }
    return false;
  }

  // ---- Verification (quiescent state only) ----

  std::uint64_t SizeDirect() const {
    std::uint64_t count = 0;
    for (const auto& bucket : buckets_) {
      // Direct: post-run verification walk; workers are quiesced.
      for (Node* node = bucket.head.LoadDirect(); node != nullptr;
           node = node->next.LoadDirect()) {  // direct: verification, as above
        ++count;
      }
    }
    return count;
  }

  std::uint64_t KeySumDirect() const {
    std::uint64_t sum = 0;
    for (const auto& bucket : buckets_) {
      // Direct: post-run verification walk; workers are quiesced.
      for (Node* node = bucket.head.LoadDirect(); node != nullptr;
           node = node->next.LoadDirect()) {  // direct: verification, as above
        sum += node->key.LoadDirect();  // direct: verification, as above
      }
    }
    return sum;
  }

 private:
  struct alignas(kCacheLineBytes) Bucket {
    TxVar<Node*> head;
  };

  Bucket& BucketFor(std::uint64_t key) { return buckets_[key % buckets_.size()]; }
  const Bucket& BucketFor(std::uint64_t key) const { return buckets_[key % buckets_.size()]; }

  std::vector<Bucket> buckets_;
};

}  // namespace rwle

#endif  // RWLE_SRC_WORKLOADS_HASHMAP_TX_HASHMAP_H_
