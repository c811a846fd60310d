#include "spec/compat.hpp"

#include <algorithm>

#include "core/arena.hpp"
#include "spec/dockerfile.hpp"
#include "spec/network_mode.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::spec {

CompatClass CompatClass::from_id(KeyId id) {
  return CompatClass(id, KeyInterner::global().hash(id));
}

CompatClass CompatClass::from_spec(const RunSpec& spec) {
  // Same canonical-text discipline as RuntimeKey::from_spec, restricted to
  // the sandbox-shaping fields.  The tag is deliberately absent (it is a
  // costed delta); the category is redundant given the name but kept in
  // the text so the never-across-categories guarantee is visible in dumps.
  // Built in thread-local arena scratch and interned: steady state is
  // allocation-free, and the "cls|" prefix keeps class texts disjoint
  // from runtime-key texts inside the shared interner.
  Arena& scratch = scratch_arena();
  scratch.reset();
  ArenaWriter w(scratch, 128);
  w.append("cls|img=");
  w.append(spec.image.name);
  w.append("|cat=");
  w.append(to_string(classify_base_image(spec.image.name)));
  w.append("|net=");
  w.append(to_string(spec.network));
  w.append("|uts=");
  w.append(to_string(spec.uts));
  w.append("|ipc=");
  w.append(to_string(spec.ipc));
  w.append("|pid=");
  w.append(to_string(spec.pid));
  w.append("|ro=");
  w.append(spec.read_only_rootfs ? '1' : '0');
  w.append("|priv=");
  w.append(spec.privileged ? '1' : '0');
  w.append("|vols=");
  w.append_u64(spec.volumes.size());
  const std::uint64_t hash = fnv1a(w.view());
  return CompatClass(KeyInterner::global().intern(w.view(), hash), hash);
}

bool compatible(const RunSpec& a, const RunSpec& b) {
  // The fields from_spec() writes into the class text, compared in place
  // (the category is a function of the name): no text, hash or intern.
  return a.image.name == b.image.name && a.network == b.network &&
         a.uts == b.uts && a.ipc == b.ipc && a.pid == b.pid &&
         a.read_only_rootfs == b.read_only_rootfs &&
         a.privileged == b.privileged &&
         a.volumes.size() == b.volumes.size();
}

CompatDelta compat_delta(const RunSpec& donor, const RunSpec& request) {
  CompatDelta delta;

  // Env delta: vars to overwrite or set, plus vars to unset.  Both maps
  // are sorted, but a plain two-pass count keeps this obviously correct.
  for (const auto& [k, v] : request.env) {
    const auto it = donor.env.find(k);
    if (it == donor.env.end() || it->second != v) ++delta.env_changes;
  }
  for (const auto& [k, v] : donor.env) {
    (void)v;
    if (request.env.find(k) == request.env.end()) ++delta.env_changes;
  }

  // Volume delta: host-path remounts.  Topology (count) is part of the
  // class, so compare position-wise over the sorted lists.
  const std::size_t vols =
      std::min(donor.volumes.size(), request.volumes.size());
  for (std::size_t i = 0; i < vols; ++i) {
    if (donor.volumes[i] != request.volumes[i]) ++delta.volume_changes;
  }
  delta.volume_changes +=
      donor.volumes.size() > request.volumes.size()
          ? donor.volumes.size() - request.volumes.size()
          : request.volumes.size() - donor.volumes.size();

  delta.tag_differs = donor.image.tag != request.image.tag;
  delta.limits_differ = donor.memory_limit != request.memory_limit ||
                        donor.cpu_limit != request.cpu_limit;
  delta.command_differs =
      donor.command != request.command ||
      donor.entrypoint_override != request.entrypoint_override;
  return delta;
}

}  // namespace hotc::spec
