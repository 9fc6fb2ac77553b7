#include "catalog/catalog.h"

#include "common/string_util.h"

namespace vdm {

const ExpressionMacro* ViewDef::FindMacro(const std::string& macro_name) const {
  for (const ExpressionMacro& m : macros) {
    if (EqualsIgnoreCase(m.name, macro_name)) return &m;
  }
  return nullptr;
}

std::string Catalog::ToLowerKey(const std::string& name) {
  return ToLower(name);
}

const AssociationDef* ViewDef::FindAssociation(
    const std::string& assoc_name) const {
  for (const AssociationDef& assoc : associations) {
    if (EqualsIgnoreCase(assoc.name, assoc_name)) return &assoc;
  }
  return nullptr;
}

Status Catalog::RegisterTable(TableSchema schema) {
  VDM_RETURN_NOT_OK(schema.Validate());
  std::string key = ToLower(schema.name());
  if (Exists(key)) {
    return Status::AlreadyExists("object already exists: " + schema.name());
  }
  tables_.emplace(std::move(key), std::move(schema));
  ++version_;
  return Status::OK();
}

Status Catalog::RegisterView(ViewDef view) {
  if (view.name.empty()) return Status::InvalidArgument("view has no name");
  std::string key = ToLower(view.name);
  if (Exists(key)) {
    return Status::AlreadyExists("object already exists: " + view.name);
  }
  views_.emplace(std::move(key), std::move(view));
  ++version_;
  return Status::OK();
}

Status Catalog::ReplaceView(ViewDef view) {
  if (view.name.empty()) return Status::InvalidArgument("view has no name");
  std::string key = ToLower(view.name);
  if (tables_.count(key) > 0) {
    return Status::InvalidArgument("cannot replace table with view: " +
                                   view.name);
  }
  views_[std::move(key)] = std::move(view);
  ++version_;
  return Status::OK();
}

Status Catalog::DropView(const std::string& name) {
  std::string key = ToLower(name);
  if (views_.erase(key) == 0) {
    return Status::NotFound("view not found: " + name);
  }
  ++version_;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table not found: " + name);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.erase(ToLower(name));
    stats_versions_.erase(ToLower(name));
  }
  ++version_;
  return Status::OK();
}

const TableSchema* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

const ViewDef* Catalog::FindView(const std::string& name) const {
  auto it = views_.find(ToLower(name));
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, schema] : tables_) out.push_back(schema.name());
  return out;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [key, view] : views_) out.push_back(view.name);
  return out;
}

}  // namespace vdm
