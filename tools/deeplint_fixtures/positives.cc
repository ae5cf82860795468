// deeplint fixture: every rule must fire here, on the marked lines.
// `// deeplint-expect: <rule>` marks the line the self-test demands a
// finding on. This file is NOT compiled; it is parsed by the deeplint
// lite backend, which is exactly what the self-test pins.
//
// NOTE for maintainers: keep the shapes minimal. Each block reproduces
// one real bug class (the view-lifetime loop shape is the PR 9
// NclFile::PostSuffix bug verbatim, minus the RDMA plumbing).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

struct Sim {
  template <typename F>
  void Schedule(int64_t delay, F&& fn);
  void RunUntilIdle();
};

struct Header {
  std::string Encode() const;  // string-returner: indexed by the driver
};

struct Op {
  std::string_view data;
};

// ---- view-lifetime (a): view bound to a temporary --------------------------

void ViewIntoTemporary(const Header& h) {
  std::string_view v = h.Encode();  // deeplint-expect: view-lifetime
  (void)v;
}

// ---- view-lifetime (b): container mutated while a view is live -------------

void ViewThenMutate() {
  std::string buffer = "0123456789";
  std::string_view view = buffer;
  buffer.append("more");  // deeplint-expect: view-lifetime
  Consume(view);
}

void Consume(std::string_view v);

// ---- view-lifetime (c): the PR 9 PostSuffix loop shape ---------------------
// Views of scratch.back() escape into `ops` while `scratch` keeps growing;
// iteration i+1's reallocation moves iteration i's SSO string out from
// under its view. The sanctioned fix is scratch.reserve(n) before the
// loop (see suppressed.cc for the reserved twin).

void SuffixRepostShape(const std::vector<std::string>& window) {
  std::vector<std::string> scratch;
  std::vector<Op> ops;
  for (const std::string& entry : window) {
    scratch.emplace_back(entry);
    ops.push_back(Op{std::string_view(scratch.back())});  // deeplint-expect: view-lifetime
  }
  Post(ops);
}

void Post(const std::vector<Op>& ops);

// ---- dangling-capture: by-ref capture outlives the frame -------------------

void ScheduleRefCapture(Sim* sim) {
  int counter = 0;
  sim->Schedule(10, [&counter] { counter++; });  // deeplint-expect: dangling-capture
}

void ScheduleDefaultRefCapture(Sim* sim, int arg) {
  sim->Schedule(10, [&] { Use(arg); });  // deeplint-expect: dangling-capture
}

void Use(int x);

// ---- inline-budget: captures exceed the 192 B arena slab -------------------

void ScheduleOversizedCapture(Sim* sim) {
  std::array<char, 256> payload{};
  sim->Schedule(10, [payload] { Sink(payload.data()); });  // deeplint-expect: inline-budget
}

void Sink(const char* p);

// ---- epoch-fence: ap-map write outside the bump-then-write helpers ---------

struct Controller {
  int SetApMap(const std::string& app, const std::string& file, int entry);
};

int RogueApMapWrite(Controller* controller) {
  return controller->SetApMap("app", "file", 7);  // deeplint-expect: epoch-fence
}

// ---- stale-allow: a suppression whose rule no longer fires -----------------

void NothingWrongHere() {
  int x = 0;  // deeplint: allow(epoch-fence) dead suppression   // deeplint-expect: stale-allow
  (void)x;
}

// ---- unknown rule in a suppression is itself a finding ---------------------

// deeplint: allow(no-such-rule) typo  // deeplint-expect: suppression
