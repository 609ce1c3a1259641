// Campaign service building blocks: the content key (physics fields
// only), the content-addressed result store, and capacity-model
// admission. The service itself — queueing, coalescing, retries and the
// acceptance campaign — is tested on ShardedFrontend in test_frontend.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/result_store.hpp"
#include "service/scheduler.hpp"

namespace sfg::service {
namespace {

std::string temp_dir(const std::string& name) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "sfg_service_" + name +
                          "_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);  // no stale state from earlier runs
  return dir;
}

// ---- content key ----

JobRequest small_request() {
  JobRequest r;
  r.nex = 4;
  r.nranks = 1;
  r.extent_m = 1000.0;
  r.source.x = 320.0;
  r.source.y = 480.0;
  r.source.z = 510.0;
  r.source.force = {1e9, 5e8, 0.0};
  r.source.f0 = 14.0;
  r.source.t0 = 0.09;
  r.stations = {{700.0, 510.0, 480.0}};
  r.dt = 1.5e-3;
  r.nsteps = 40;
  return r;
}

TEST(RequestKey, HashesPhysicsNotServiceKnobs) {
  const JobRequest a = small_request();
  JobRequest b = a;
  b.priority = 7;
  b.checkpoint_interval_steps = 10;
  b.fault.kill_rank = 1;
  b.fault.kill_step = 20;
  EXPECT_EQ(request_key(a), request_key(b))
      << "service knobs must not change the content address";

  JobRequest c = a;
  c.dt = 1.6e-3;
  EXPECT_NE(request_key(a), request_key(c));
  JobRequest d = a;
  d.stations.push_back({100.0, 100.0, 900.0});
  EXPECT_NE(request_key(a), request_key(d));
  JobRequest e = a;
  e.model = BoxModel::FluidLayer;
  EXPECT_NE(request_key(a), request_key(e));
}

// ---- result store ----

JobResult fake_result() {
  JobResult res;
  Seismogram s;
  for (int i = 0; i < 32; ++i) {
    s.time.push_back(1.5e-3 * i);
    s.displ.push_back({1e-9 * i, -2e-9 * i, 0.5e-9 * i});
  }
  res.seismograms = {s, s};
  return res;
}

void expect_results_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.seismograms.size(), b.seismograms.size());
  for (std::size_t s = 0; s < a.seismograms.size(); ++s) {
    ASSERT_EQ(a.seismograms[s].time, b.seismograms[s].time);
    ASSERT_EQ(a.seismograms[s].displ, b.seismograms[s].displ);
  }
}

TEST(ResultStore, RoundTripsAndPersistsAcrossReopen) {
  const std::string dir = temp_dir("store");
  const RequestKey key = request_key(small_request());
  const JobResult res = fake_result();
  {
    ResultStore store(dir);
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).has_value());
    store.store(key, res);
    EXPECT_TRUE(store.contains(key));
    expect_results_equal(*store.load(key), res);
    EXPECT_EQ(store.size(), 1u);
  }
  // A fresh store over the same directory re-indexes the file: this is the
  // cross-campaign cache.
  ResultStore reopened(dir);
  ASSERT_TRUE(reopened.contains(key));
  expect_results_equal(*reopened.load(key), res);
}

TEST(ResultStore, CorruptedEntryIsRejectedNotServed) {
  const std::string dir = temp_dir("store_corrupt");
  const RequestKey key = request_key(small_request());
  ResultStore store(dir);
  store.store(key, fake_result());
  {
    std::fstream f(store.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(150);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(150);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }
  EXPECT_THROW(store.load(key), CheckError);
}

// ---- admission ----

TEST(Scheduler, RejectsMalformedRequests) {
  Scheduler sched(AdmissionPolicy{}, CostModel{});
  RejectionReason why;
  JobRequest r = small_request();
  r.nranks = 3;  // 4 % 3 != 0
  EXPECT_FALSE(sched.admit(r, &why).has_value());
  EXPECT_FALSE(why.message.empty());

  r = small_request();
  r.stations.clear();
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.nsteps = 0;
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.fault.kill_rank = 0;
  r.fault.kill_step = 5;  // fault injection needs nranks >= 2
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.fault.kill_rank = 5;
  r.fault.kill_step = 5;
  r.nranks = 2;
  EXPECT_FALSE(sched.admit(r, &why).has_value());  // kill_rank >= nranks
}

TEST(Scheduler, PricesWithCapacityModelAndEnforcesBudgets) {
  const JobRequest r = small_request();
  {
    Scheduler open(AdmissionPolicy{}, CostModel{});
    RejectionReason why;
    const auto cost = open.admit(r, &why);
    ASSERT_TRUE(cost.has_value());
    EXPECT_GT(*cost, 0.0);
    // The price is the capacity model, not a constant: doubling the steps
    // doubles it, and 2 ranks of the same box cost the same flops.
    JobRequest twice = r;
    twice.nsteps = 2 * r.nsteps;
    EXPECT_NEAR(*open.admit(twice, &why), 2.0 * *cost, 1e-9 * *cost);
    EXPECT_GT(open.committed_core_seconds(), 0.0);
  }
  {
    AdmissionPolicy tight;
    tight.max_job_core_seconds = 1e-12;  // nothing fits
    Scheduler sched(tight, CostModel{});
    RejectionReason why;
    EXPECT_FALSE(sched.admit(r, &why).has_value());
    EXPECT_NE(why.message.find("core-seconds"), std::string::npos)
        << why.message;
  }
  {
    AdmissionPolicy budget;
    Scheduler probe(AdmissionPolicy{}, CostModel{});
    RejectionReason why;
    const double one = *probe.admit(r, &why);
    budget.max_campaign_core_seconds = 1.5 * one;  // room for one job only
    Scheduler sched(budget, CostModel{});
    EXPECT_TRUE(sched.admit(r, &why).has_value());
    EXPECT_FALSE(sched.admit(r, &why).has_value());  // budget exhausted
  }
}

}  // namespace
}  // namespace sfg::service
