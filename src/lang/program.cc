#include "lang/program.h"

namespace lps {

Status Program::AddFact(PredicateId pred, std::vector<TermId> args) {
  if (signature_.IsSpecial(pred)) {
    return Status::InvalidArgument(
        "facts may not use special predicate " + signature_.Name(pred));
  }
  if (args.size() != signature_.info(pred).arity()) {
    return Status::InvalidArgument(
        "arity mismatch in fact for " + signature_.Name(pred));
  }
  for (TermId t : args) {
    if (!store_->is_ground(t)) {
      return Status::InvalidArgument("facts must be ground: " +
                                     signature_.Name(pred));
    }
  }
  facts_.push_back(Literal{pred, std::move(args), true});
  return Status::OK();
}

void Program::RemoveFactsAt(const std::vector<size_t>& sorted_indices) {
  facts_.RemoveAt(sorted_indices);
}

bool Program::RemoveFact(PredicateId pred,
                         const std::vector<TermId>& args) {
  return facts_.RemoveFirst(pred, args);
}

std::string Program::ToString() const {
  std::string out;
  for (const Literal& f : facts_) {
    out += LiteralToString(*store_, signature_, f);
    out += ".\n";
  }
  for (const Clause& c : *clauses_) {
    out += ClauseToString(*store_, signature_, c);
    out += '\n';
  }
  return out;
}

}  // namespace lps
