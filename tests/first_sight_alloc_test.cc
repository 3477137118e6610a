// Heap allocations of a first sight: one parse into a pooled Query and
// one classification with a pooled scratch, the way each engine shard
// runs them, over every distinct text of the Table 2 profiles. This
// binary replaces the global operator new to count every allocation, so
// it holds this test alone.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_interner.h"
#include "core/verdict.h"
#include "loggen/sparql_gen.h"
#include "sparql/parser.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rwdt {
namespace {

TEST(FirstSightAllocationTest, PooledParseAndClassifyStayOffTheHeap) {
  std::vector<std::string> texts;
  {
    std::unordered_set<std::string> seen;
    for (const loggen::SourceProfile& profile : loggen::Table2Profiles()) {
      for (loggen::LogEntry& entry : loggen::GenerateLog(profile, 1)) {
        if (seen.insert(entry.text).second) {
          texts.push_back(std::move(entry.text));
        }
      }
    }
  }

  // The state one engine shard keeps, from cold: buffer growth counts.
  FlatInterner dict;
  sparql::Query query;
  core::ClassifyScratch scratch;
  const sparql::ParseLimits limits;
  const core::LogStudyOptions options;
  uint64_t accepted = 0, rejected = 0;
  uint64_t accepted_allocations = 0, rejected_allocations = 0;
  for (const std::string& text : texts) {
    dict.Clear();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    bool ok = false;
    {
      const Status parsed = sparql::ParseSparql(text, &dict, limits, &query);
      ok = parsed.ok();
      if (ok) {
        const core::QueryVerdict verdict =
            core::Classify(query, options, &scratch, nullptr);
      }
    }
    const uint64_t made =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (ok) {
      ++accepted;
      accepted_allocations += made;
    } else {
      ++rejected;
      rejected_allocations += made;
    }
  }
  ASSERT_GT(accepted, 1000u);
  ASSERT_GT(rejected, 100u);
  const double per_accepted =
      static_cast<double>(accepted_allocations) / static_cast<double>(accepted);
  const double per_rejected =
      static_cast<double>(rejected_allocations) / static_cast<double>(rejected);
  std::printf(
      "%llu distinct texts: %llu accepted, %.3f allocations each; %llu "
      "rejected, %.3f allocations each\n",
      static_cast<unsigned long long>(texts.size()),
      static_cast<unsigned long long>(accepted), per_accepted,
      static_cast<unsigned long long>(rejected), per_rejected);
  EXPECT_LE(per_accepted, 2.0);
  EXPECT_LE(per_rejected, 3.0);
}

}  // namespace
}  // namespace rwdt
