#include "analytics/domain_tree.hpp"

#include <algorithm>

#include "analytics/tokenizer.hpp"
#include "dns/domain.hpp"
#include "util/strings.hpp"

namespace dnh::analytics {

DomainTree build_domain_tree(const core::FlowDatabase& db,
                             const orgdb::OrgDb& orgs,
                             const std::string& sld) {
  DomainTree tree;
  tree.sld = sld;
  tree.root.token = sld;

  std::map<std::string_view, std::set<net::Ipv4Address>> hosting_servers;

  for (const auto index : db.by_second_level(sld)) {
    const auto& flow = db.flow(index);
    ++tree.total_flows;
    ++tree.root.flows;

    // Walk sub-domain labels right-to-left under the 2LD:
    // "iphone.stats.zynga.com" -> stats -> iphone.
    const std::string_view sub = dns::subdomain_part(flow.fqdn);
    DomainTreeNode* node = &tree.root;
    if (!sub.empty()) {
      auto labels = util::split(sub, '.');
      for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
        const std::string token = normalize_digits(*it);
        auto& child = node->children[token];
        if (!child) {
          child = std::make_unique<DomainTreeNode>();
          child->token = token;
        }
        node = child.get();
        ++node->flows;
      }
    }

    const std::string_view host =
        orgs.lookup(flow.key.server_ip).value_or("unknown");
    auto& group = tree.hosting[std::string{host}];
    ++group.flows;
    group.fqdns.insert(sub.empty() ? "(apex)" : normalize_digits(sub));
    hosting_servers[host].insert(flow.key.server_ip);
  }
  for (auto& [host, group] : tree.hosting)
    group.servers = hosting_servers[host].size();
  return tree;
}

namespace {

void render_node(const DomainTreeNode& node, const std::string& prefix,
                 bool last, std::string& out) {
  out += prefix;
  out += last ? "`-- " : "|-- ";
  out += node.token + " (" + std::to_string(node.flows) + ")\n";
  const std::string child_prefix = prefix + (last ? "    " : "|   ");
  // Children by descending flows for readability.
  std::vector<const DomainTreeNode*> kids;
  for (const auto& [_, child] : node.children) kids.push_back(child.get());
  std::sort(kids.begin(), kids.end(),
            [](const DomainTreeNode* a, const DomainTreeNode* b) {
              if (a->flows != b->flows) return a->flows > b->flows;
              return a->token < b->token;
            });
  for (std::size_t i = 0; i < kids.size(); ++i)
    render_node(*kids[i], child_prefix, i + 1 == kids.size(), out);
}

}  // namespace

std::string render_domain_tree(const DomainTree& tree,
                               std::size_t max_branches_per_group) {
  std::string out = tree.sld + "  (" +
                    util::with_commas(tree.total_flows) + " flows)\n";

  // Hosting groups, largest first — the Fig. 7/8 rectangles.
  std::vector<std::pair<std::string, const DomainTree::HostingGroup*>>
      groups;
  for (const auto& [host, group] : tree.hosting)
    groups.emplace_back(host, &group);
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.second->flows > b.second->flows;
  });
  for (const auto& [host, group] : groups) {
    const double share = tree.total_flows
                             ? static_cast<double>(group->flows) /
                                   static_cast<double>(tree.total_flows)
                             : 0.0;
    out += "  [" + host + "]  servers=" + std::to_string(group->servers) +
           "  flows=" + util::percent(share, 0) + "  branches: ";
    std::size_t shown = 0;
    for (const auto& fqdn : group->fqdns) {
      if (shown++ == max_branches_per_group) {
        out += "... (+" +
               std::to_string(group->fqdns.size() -
                              max_branches_per_group) +
               " hidden)";
        break;
      }
      if (shown > 1) out += ", ";
      out += fqdn;
    }
    out += "\n";
  }

  out += "token tree:\n";
  std::string body;
  render_node(tree.root, "  ", true, body);
  return out + body;
}

}  // namespace dnh::analytics
