// Thread-local batch boundary for hand-offs that are cheaper in bulk.
//
// A transport that receives work in chunks (one TCP read carries
// hundreds of JSONL lines) opens a BatchScope on its stack around the
// chunk. While the scope is open, a producer may stage items in a Batch
// of its own instead of handing each one off; the scope flushes every
// batch, in the order they were opened, when it closes. Outside a scope
// nothing is staged, so code that never opens one sees no change.
//
//   {
//     util::BatchScope scope;
//     for (line : chunk) handle(line);  // producers stage into the scope
//   }                                   // one hand-off per batch here
//
// Flushing early is always allowed: a producer that needs an ordering
// barrier (a control message that must land behind the items staged
// before it) calls flush_current() first. Scopes nest; only the
// outermost one on a thread is live, inner ones are inert.
//
// A batch refers to its producer, so a producer must outlive every
// scope that staged into it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace causaliot::util {

class BatchScope {
 public:
  class Batch {
   public:
    virtual ~Batch() = default;
    /// Hands off everything staged so far; the batch stays usable.
    virtual void flush() = 0;
  };

  BatchScope() : outer_(current_) {
    if (outer_ == nullptr) current_ = this;
  }
  ~BatchScope() {
    if (outer_ != nullptr) return;
    flush();
    current_ = nullptr;
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  /// The live scope on this thread, or nullptr outside any scope.
  static BatchScope* current() { return current_; }

  /// The batch `owner` opened in this scope; `make()` builds it (as a
  /// std::unique_ptr<B>) on first use.
  template <typename B, typename Make>
  B& batch(const void* owner, Make&& make) {
    for (auto& [key, batch] : batches_) {
      if (key == owner) return static_cast<B&>(*batch);
    }
    batches_.emplace_back(owner, make());
    return static_cast<B&>(*batches_.back().second);
  }

  /// Flushes every batch opened so far, in opening order.
  void flush() {
    for (auto& entry : batches_) entry.second->flush();
  }

  /// flush() on this thread's live scope, if any.
  static void flush_current() {
    if (current_ != nullptr) current_->flush();
  }

 private:
  static inline thread_local BatchScope* current_ = nullptr;
  BatchScope* const outer_;
  std::vector<std::pair<const void*, std::unique_ptr<Batch>>> batches_;
};

}  // namespace causaliot::util
