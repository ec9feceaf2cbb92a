#include "src/framework/element.hh"

#include <utility>

namespace pmill {

ElementRegistry &
ElementRegistry::instance()
{
    static ElementRegistry registry;
    return registry;
}

void
ElementRegistry::add(const std::string &class_name, Factory factory)
{
    for (auto &[name, f] : factories_) {
        if (name == class_name) {
            f = std::move(factory);
            return;
        }
    }
    factories_.emplace_back(class_name, std::move(factory));
}

bool
ElementRegistry::has(const std::string &class_name) const
{
    for (const auto &[name, f] : factories_)
        if (name == class_name)
            return true;
    return false;
}

std::unique_ptr<Element>
ElementRegistry::create(const std::string &class_name) const
{
    for (const auto &[name, f] : factories_)
        if (name == class_name)
            return f();
    return nullptr;
}

} // namespace pmill
