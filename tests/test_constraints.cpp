// Tests for security/license policy constraints (paper Sec. 6 extension).
#include <gtest/gtest.h>

#include <memory>

#include "core/candidate_selection.h"
#include "core/search.h"
#include "net/topology.h"
#include "stream/constraints.h"

namespace acp::stream {
namespace {

TEST(PolicyConstraint, DefaultIsPermissive) {
  PolicyConstraint p;
  EXPECT_TRUE(p.is_permissive());
  EXPECT_TRUE(p.admits({SecurityLevel::kOpen, LicenseClass::kEvaluation}));
  EXPECT_TRUE(p.admits({SecurityLevel::kCertified, LicenseClass::kCommercial}));
}

TEST(PolicyConstraint, SecurityLevelIsOrdered) {
  PolicyConstraint p;
  p.require_security(SecurityLevel::kHardened);
  EXPECT_FALSE(p.is_permissive());
  EXPECT_FALSE(p.admits({SecurityLevel::kOpen, LicenseClass::kPermissive}));
  EXPECT_FALSE(p.admits({SecurityLevel::kBasic, LicenseClass::kPermissive}));
  EXPECT_TRUE(p.admits({SecurityLevel::kHardened, LicenseClass::kPermissive}));
  EXPECT_TRUE(p.admits({SecurityLevel::kCertified, LicenseClass::kPermissive}));
}

TEST(PolicyConstraint, LicenseAllowList) {
  PolicyConstraint p;
  p.allow_licenses({LicenseClass::kPermissive, LicenseClass::kCopyleft});
  EXPECT_TRUE(p.admits({SecurityLevel::kOpen, LicenseClass::kPermissive}));
  EXPECT_TRUE(p.admits({SecurityLevel::kOpen, LicenseClass::kCopyleft}));
  EXPECT_FALSE(p.admits({SecurityLevel::kOpen, LicenseClass::kCommercial}));
  EXPECT_FALSE(p.admits({SecurityLevel::kOpen, LicenseClass::kEvaluation}));
  p.allow_licenses({});  // reset to accept-all
  EXPECT_TRUE(p.license_allowed(LicenseClass::kEvaluation));
}

TEST(PolicyConstraint, ToStringListsContents) {
  PolicyConstraint p;
  p.require_security(SecurityLevel::kBasic);
  p.allow_licenses({LicenseClass::kCommercial});
  const auto s = p.to_string();
  EXPECT_NE(s.find("basic"), std::string::npos);
  EXPECT_NE(s.find("commercial"), std::string::npos);
  EXPECT_EQ(s.find("copyleft"), std::string::npos);
}

struct ConstraintSystemFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 200;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 10;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<StreamSystem>(*mesh, FunctionCatalog::generate(4, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    // fn 0: one hardened/commercial provider and one open/permissive one.
    secure = sys->add_component(0, 1, QoSVector::from_metrics(10, 0.0),
                                {SecurityLevel::kHardened, LicenseClass::kCommercial});
    open = sys->add_component(0, 2, QoSVector::from_metrics(10, 0.0),
                              {SecurityLevel::kOpen, LicenseClass::kPermissive});

    req.id = 1;
    req.graph.add_node(0, ResourceVector(10.0, 100.0));
    req.qos_req = QoSVector::from_metrics(1000.0, 0.5);
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
  ComponentId secure{}, open{};
  workload::Request req;
};

TEST_F(ConstraintSystemFixture, AttributesRoundTrip) {
  EXPECT_EQ(sys->component_attributes(secure).security, SecurityLevel::kHardened);
  EXPECT_EQ(sys->component_attributes(open).license, LicenseClass::kPermissive);
  sys->set_component_attributes(open, {SecurityLevel::kBasic, LicenseClass::kEvaluation});
  EXPECT_EQ(sys->component_attributes(open).security, SecurityLevel::kBasic);
  EXPECT_THROW(sys->component_attributes(999), acp::PreconditionError);
}

TEST_F(ConstraintSystemFixture, PerHopFilterEnforcesPolicy) {
  core::HopContext ctx;
  ctx.sys = sys.get();
  ctx.req = &req;
  ctx.next_fn = 0;
  const std::vector<ComponentId> cands{secure, open};

  auto q = core::filter_qualified(ctx, sys->true_state(), cands);
  EXPECT_EQ(q.size(), 2u);  // permissive default

  req.policy.require_security(SecurityLevel::kHardened);
  q = core::filter_qualified(ctx, sys->true_state(), cands);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], secure);

  req.policy = PolicyConstraint{};
  req.policy.allow_licenses({LicenseClass::kPermissive});
  q = core::filter_qualified(ctx, sys->true_state(), cands);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], open);
}

TEST_F(ConstraintSystemFixture, QualifiedRejectsPolicyViolations) {
  ComponentGraph g(req.graph);
  g.assign(0, open);
  CompositionScratch scratch;
  scratch.begin(req.graph, sys->true_state(), 0.0);
  EXPECT_TRUE(g.qualify(*sys, sys->true_state(), req.qos_req, req.policy, 0.0, scratch));
  req.policy.require_security(SecurityLevel::kCertified);
  EXPECT_FALSE(g.satisfies_policy(*sys, req.policy));
  EXPECT_FALSE(g.qualify(*sys, sys->true_state(), req.qos_req, req.policy, 0.0, scratch));
}

TEST_F(ConstraintSystemFixture, SearchesRespectPolicy) {
  req.policy.require_security(SecurityLevel::kHardened);
  const auto best = core::exhaustive_best(*sys, req, sys->true_state(), 0.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->component_at(0), secure);

  const auto guided =
      core::guided_search(*sys, req, 1.0, sys->true_state(), sys->true_state(), 0.0);
  ASSERT_TRUE(guided.has_value());
  EXPECT_EQ(guided->component_at(0), secure);
}

TEST_F(ConstraintSystemFixture, UnsatisfiablePolicyFailsCleanly) {
  req.policy.require_security(SecurityLevel::kCertified);
  EXPECT_FALSE(core::exhaustive_best(*sys, req, sys->true_state(), 0.0).has_value());
}

}  // namespace
}  // namespace acp::stream
